package collective

import (
	"math"
	"testing"
	"testing/quick"

	"dnnparallel/internal/machine"
)

func testMachine() machine.Machine {
	return machine.Machine{Name: "test", Alpha: 1e-6, Beta: 1e-9, PeakFlops: 1e12}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 512: 9, 1024: 10, 4096: 12}
	for p, want := range cases {
		if got := CeilLog2(p); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", p, got, want)
		}
	}
	// Exact at every power of two and its neighbours, where a float
	// log2 rounds 2^k+1 down to k once k ≥ 49.
	for k := 2; k <= 62; k++ {
		p := 1 << k
		for _, c := range [][2]int{{p - 1, k}, {p, k}, {p + 1, k + 1}} {
			if got := CeilLog2(c[0]); got != c[1] {
				t.Errorf("CeilLog2(%d) = %d, want %d", c[0], got, c[1])
			}
		}
	}
}

func TestSingleProcessCollectivesAreFree(t *testing.T) {
	m := testMachine()
	for name, c := range map[string]Cost{
		"AllGather":     AllGather(1, 1e6, m),
		"AllReduce":     AllReduce(1, 1e6, m),
		"ReduceScatter": ReduceScatter(1, 1e6, m),
		"Broadcast":     Broadcast(1, 1e6, m),
	} {
		if c.Total() != 0 {
			t.Errorf("%s with p=1 should be free, got %v", name, c.Total())
		}
	}
}

func TestAllReduceIsTwiceReduceScatter(t *testing.T) {
	m := testMachine()
	f := func(pRaw uint8, wordsRaw uint32) bool {
		p := 2 + int(pRaw)%100
		words := float64(1 + wordsRaw%1e6)
		ar := AllReduce(p, words, m)
		rs := ReduceScatter(p, words, m)
		return math.Abs(ar.Total()-2*rs.Total()) < 1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherMatchesPaperFormula(t *testing.T) {
	m := testMachine()
	p, words := 8, 1000.0
	c := AllGather(p, words, m)
	wantLat := m.Alpha * 3
	wantBW := m.Beta * words * 7 / 8
	if math.Abs(c.Latency-wantLat) > 1e-18 || math.Abs(c.Bandwidth-wantBW) > 1e-18 {
		t.Fatalf("AllGather(8, 1000) = %+v, want lat %g bw %g", c, wantLat, wantBW)
	}
}

// TestBandwidthTermSaturates checks the paper's observation that for
// P ≫ 1 the all-reduce bandwidth term is independent of P
// ((P-1)/P → 1), unlike the all-gather whose *volume* grows with B·d.
func TestBandwidthTermSaturates(t *testing.T) {
	m := testMachine()
	words := 1e6
	c1 := AllReduce(512, words, m).Bandwidth
	c2 := AllReduce(4096, words, m).Bandwidth
	limit := 2 * m.Beta * words
	if c1 > limit || c2 > limit {
		t.Fatal("bandwidth term exceeds asymptotic limit")
	}
	if (limit-c2)/limit > 0.001 {
		t.Fatalf("at p=4096 bandwidth should be within 0.1%% of limit, gap %v", (limit-c2)/limit)
	}
	if c2 < c1 {
		t.Fatal("bandwidth term should be non-decreasing in p")
	}
}

func TestCostMonotoneInWords(t *testing.T) {
	m := testMachine()
	f := func(wRaw uint32) bool {
		w := float64(wRaw % 1e6)
		a := AllGather(16, w, m)
		b := AllGather(16, w+1, m)
		return b.Total() >= a.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointToPoint(t *testing.T) {
	m := testMachine()
	c := PointToPoint(500, m)
	if c.Latency != m.Alpha || c.Bandwidth != 500*m.Beta {
		t.Fatalf("PointToPoint = %+v", c)
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Latency: 1, Bandwidth: 2}
	b := Cost{Latency: 3, Bandwidth: 5}
	s := a.Add(b)
	if s.Latency != 4 || s.Bandwidth != 7 || s.Total() != 11 {
		t.Fatalf("Add = %+v", s)
	}
	sc := a.Scale(10)
	if sc.Latency != 10 || sc.Bandwidth != 20 {
		t.Fatalf("Scale = %+v", sc)
	}
}

func TestMachinePresets(t *testing.T) {
	knl := machine.CoriKNL()
	if err := knl.Validate(); err != nil {
		t.Fatal(err)
	}
	if knl.Alpha != 2e-6 {
		t.Fatalf("Cori alpha = %g, want 2e-6 (Table 1)", knl.Alpha)
	}
	if bw := knl.BandwidthBytes(); math.Abs(bw-6e9) > 1 {
		t.Fatalf("Cori bandwidth = %g B/s, want 6e9 (Table 1)", bw)
	}
	bad := machine.Machine{Name: "bad", Alpha: -1, Beta: 1, PeakFlops: 1}
	if bad.Validate() == nil {
		t.Fatal("negative alpha should fail validation")
	}
}
