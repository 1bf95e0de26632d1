package mpi

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/machine"
)

func testMachine() machine.Machine {
	return machine.Machine{Name: "test", Alpha: 1e-6, Beta: 1e-9, PeakFlops: 1e12}
}

// Tick advances the rank's clock by d seconds of modeled computation,
// skewing clocks for the timing tests.
func (p *Proc) Tick(d float64) { p.clock += d }

func TestSendRecvDelivers(t *testing.T) {
	w := NewWorld(2, testMachine())
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := p.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

func TestRecvAdvancesClock(t *testing.T) {
	m := testMachine()
	w := NewWorld(2, m)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Tick(1.0)
			p.Send(1, 1, make([]float64, 1000))
		} else {
			p.Recv(0, 1)
			want := 1.0 + m.Alpha + m.Beta*1000
			if math.Abs(p.Clock()-want) > 1e-15 {
				t.Errorf("receiver clock %g, want %g", p.Clock(), want)
			}
		}
	})
}

func TestISendChargesOnlyInjection(t *testing.T) {
	m := testMachine()
	w := NewWorld(2, m)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.ISend(1, 1, make([]float64, 1e6))
			if math.Abs(p.Clock()-m.Alpha) > 1e-18 {
				t.Errorf("ISend cost sender %g, want α=%g", p.Clock(), m.Alpha)
			}
		} else {
			// Overlap: compute longer than the wire time, then receive.
			wire := m.Alpha + m.Beta*1e6
			p.Tick(10 * wire)
			before := p.Clock()
			p.Recv(0, 1)
			if p.Clock() != before {
				t.Errorf("fully overlapped recv advanced clock by %g", p.Clock()-before)
			}
		}
	})
}

func allGatherOracle(blocks [][]float64) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

func TestAllGatherAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		blockLen := 3 + p%3
		blocks := make([][]float64, p)
		for r := range blocks {
			blocks[r] = make([]float64, blockLen)
			for i := range blocks[r] {
				blocks[r][i] = rng.NormFloat64()
			}
		}
		want := allGatherOracle(blocks)
		w := NewWorld(p, testMachine())
		var mu sync.Mutex
		fail := ""
		w.Run(func(proc *Proc) {
			got := proc.WorldComm().AllGather(blocks[proc.Rank()])
			for i := range want {
				if got[i] != want[i] {
					mu.Lock()
					fail = "mismatch"
					mu.Unlock()
					return
				}
			}
		})
		if fail != "" {
			t.Fatalf("p=%d: AllGather mismatch", p)
		}
	}
}

func TestAllReduceSumAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		for _, n := range []int{1, 5, 16, 37, 100} {
			rng := rand.New(rand.NewSource(int64(p*1000 + n)))
			ins := make([][]float64, p)
			want := make([]float64, n)
			for r := range ins {
				ins[r] = make([]float64, n)
				for i := range ins[r] {
					ins[r][i] = rng.NormFloat64()
					want[i] += ins[r][i]
				}
			}
			w := NewWorld(p, testMachine())
			var mu sync.Mutex
			worst := 0.0
			w.Run(func(proc *Proc) {
				got := proc.WorldComm().AllReduceSum(ins[proc.Rank()])
				for i := range want {
					if d := math.Abs(got[i] - want[i]); d > 1e-9 {
						mu.Lock()
						if d > worst {
							worst = d
						}
						mu.Unlock()
					}
				}
			})
			if worst > 0 {
				t.Fatalf("p=%d n=%d: AllReduce worst error %g", p, n, worst)
			}
		}
	}
}

// TestAllGatherTimeMatchesClosedForm ties the executable simulator to the
// analytic cost model: on a power-of-two group with synchronized clocks,
// Bruck all-gather's measured virtual time equals
// α⌈log p⌉ + β·(p−1)/p·n exactly.
func TestAllGatherTimeMatchesClosedForm(t *testing.T) {
	m := testMachine()
	for _, p := range []int{2, 4, 8, 16} {
		blockLen := 128
		total := float64(blockLen * p)
		want := collective.AllGather(p, total, m).Total()
		w := NewWorld(p, m)
		var mu sync.Mutex
		var clocks []float64
		w.Run(func(proc *Proc) {
			proc.WorldComm().AllGather(make([]float64, blockLen))
			mu.Lock()
			clocks = append(clocks, proc.Clock())
			mu.Unlock()
		})
		for _, c := range clocks {
			if math.Abs(c-want) > 1e-15*math.Max(1, want) {
				t.Fatalf("p=%d: measured all-gather time %g, closed form %g", p, c, want)
			}
		}
	}
}

// TestAllReduceTimeMatchesClosedForm: recursive halving/doubling
// all-reduce matches 2(α·log p + β·(p−1)/p·n) on power-of-two groups.
func TestAllReduceTimeMatchesClosedForm(t *testing.T) {
	m := testMachine()
	for _, p := range []int{2, 4, 8, 16, 32} {
		n := 1 << 12
		want := collective.AllReduce(p, float64(n), m).Total()
		w := NewWorld(p, m)
		var mu sync.Mutex
		var clocks []float64
		w.Run(func(proc *Proc) {
			proc.WorldComm().AllReduceSum(make([]float64, n))
			mu.Lock()
			clocks = append(clocks, proc.Clock())
			mu.Unlock()
		})
		for _, c := range clocks {
			if math.Abs(c-want) > 1e-12*want {
				t.Fatalf("p=%d: measured all-reduce time %g, closed form %g", p, c, want)
			}
		}
	}
}

// TestAllReduceWordsMatchTheory: each rank sends exactly 2·(p−1)/p·n
// words in the power-of-two algorithm.
func TestAllReduceWordsMatchTheory(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		n := 1 << 10
		w := NewWorld(p, testMachine())
		w.Run(func(proc *Proc) {
			proc.WorldComm().AllReduceSum(make([]float64, n))
		})
		want := int64(2 * (p - 1) * n / p)
		for _, s := range w.Stats() {
			if s.WordsSent != want {
				t.Fatalf("p=%d rank %d sent %d words, want %d", p, s.Rank, s.WordsSent, want)
			}
		}
	}
}

// TestSubCommunicators: row/column groups behave independently — the
// grid pattern of Fig. 5.
func TestSubCommunicators(t *testing.T) {
	// 2×3 grid: rows {0,1,2}, {3,4,5}; cols {0,3}, {1,4}, {2,5}.
	w := NewWorld(6, testMachine())
	var mu sync.Mutex
	rowSums := make(map[int]float64)
	colSums := make(map[int]float64)
	w.Run(func(p *Proc) {
		r, c := p.Rank()/3, p.Rank()%3
		rowGroup := []int{r * 3, r*3 + 1, r*3 + 2}
		colGroup := []int{c, c + 3}
		row := p.CommFrom(rowGroup)
		col := p.CommFrom(colGroup)
		rs := row.AllReduceSum([]float64{float64(p.Rank())})
		cs := col.AllReduceSum([]float64{float64(p.Rank())})
		mu.Lock()
		rowSums[p.Rank()] = rs[0]
		colSums[p.Rank()] = cs[0]
		mu.Unlock()
	})
	for rank, s := range rowSums {
		want := 3.0 // 0+1+2
		if rank >= 3 {
			want = 12 // 3+4+5
		}
		if s != want {
			t.Fatalf("rank %d row sum %g, want %g", rank, s, want)
		}
	}
	for rank, s := range colSums {
		want := float64(rank%3)*2 + 3 // c + (c+3)
		if s != want {
			t.Fatalf("rank %d col sum %g, want %g", rank, s, want)
		}
	}
}

func TestCommFromValidation(t *testing.T) {
	w := NewWorld(3, testMachine())
	w.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("group without caller should panic")
			}
		}()
		p.CommFrom([]int{1, 2})
	})
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2, testMachine())
	w.Run(func(p *Proc) {
		p.Tick(0.5)
		if p.Rank() == 0 {
			p.Send(1, 1, make([]float64, 100))
		} else {
			p.Recv(0, 1)
		}
	})
	stats := w.Stats()
	if stats[0].WordsSent != 100 || stats[0].Messages != 1 {
		t.Fatalf("sender stats wrong: %+v", stats[0])
	}
	if stats[0].CommTime <= 0 {
		t.Fatal("sender comm time not recorded")
	}
	if stats[1].Clock <= 0.5 {
		t.Fatalf("receiver's final clock %g should exceed its compute-only time", stats[1].Clock)
	}
}
