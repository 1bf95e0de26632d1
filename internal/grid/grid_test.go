package grid

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFactorizations(t *testing.T) {
	got := Factorizations(12)
	want := []Grid{{1, 12}, {2, 6}, {3, 4}, {4, 3}, {6, 2}, {12, 1}}
	if len(got) != len(want) {
		t.Fatalf("Factorizations(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Factorizations(12)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFactorizationsProductInvariant(t *testing.T) {
	f := func(pRaw uint16) bool {
		p := 1 + int(pRaw)%4096
		for _, g := range Factorizations(p) {
			if g.P() != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// factorizationsLinear is the O(p) reference: every pr from 1 to p.
func factorizationsLinear(p int) []Grid {
	var out []Grid
	for pr := 1; pr <= p; pr++ {
		if p%pr == 0 {
			out = append(out, Grid{Pr: pr, Pc: p / pr})
		}
	}
	return out
}

// The O(√p) divisor walk returns the linear scan's list, in the same
// increasing-Pr order, for every p ≤ 5000 and for primes whose linear
// scan is still cheap; a prime as large as the one that used to hang
// the planner (~1e14) has just its two grids, found in O(√p).
func TestFactorizationsMatchLinearScan(t *testing.T) {
	ps := []int{999983, 1000003, 16777213, 16777216, 16777259}
	for p := 0; p <= 5000; p++ {
		ps = append(ps, p)
	}
	for _, p := range ps {
		if got, want := Factorizations(p), factorizationsLinear(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("Factorizations(%d) = %v, want %v", p, got, want)
		}
	}
	const prime = 99999999999973
	if got, want := Factorizations(prime), []Grid{{1, prime}, {prime, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Factorizations(%d) = %v, want %v", prime, got, want)
	}
}

func TestFactorizationEndpoints(t *testing.T) {
	fs := Factorizations(512)
	if !fs[0].IsPureBatch() || fs[0].Pc != 512 {
		t.Fatalf("first factorization %v should be pure batch", fs[0])
	}
	if !fs[len(fs)-1].IsPureModel() || fs[len(fs)-1].Pr != 512 {
		t.Fatalf("last factorization %v should be pure model", fs[len(fs)-1])
	}
	// 512 = 2^9 has 10 divisors.
	if len(fs) != 10 {
		t.Fatalf("512 has %d factorizations, want 10", len(fs))
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	f := func(prRaw, pcRaw uint8, rankRaw uint16) bool {
		pr, pc := 1+int(prRaw)%16, 1+int(pcRaw)%16
		g := Grid{Pr: pr, Pc: pc}
		rank := int(rankRaw) % g.P()
		r, c := g.Coords(rank)
		return g.Rank(r, c) == rank && r >= 0 && r < pr && c >= 0 && c < pc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowColGroups(t *testing.T) {
	g := Grid{Pr: 2, Pc: 3}
	row := g.RowGroup(1)
	if len(row) != 3 || row[0] != 3 || row[1] != 4 || row[2] != 5 {
		t.Fatalf("RowGroup(1) = %v", row)
	}
	col := g.ColGroup(2)
	if len(col) != 2 || col[0] != 2 || col[1] != 5 {
		t.Fatalf("ColGroup(2) = %v", col)
	}
}

// TestGroupsPartitionRanks: row groups partition all ranks; so do column
// groups.
func TestGroupsPartitionRanks(t *testing.T) {
	g := Grid{Pr: 4, Pc: 6}
	seen := make(map[int]int)
	for r := 0; r < g.Pr; r++ {
		for _, rank := range g.RowGroup(r) {
			seen[rank]++
		}
	}
	if len(seen) != g.P() {
		t.Fatalf("row groups cover %d ranks, want %d", len(seen), g.P())
	}
	for rank, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d appears %d times in row groups", rank, n)
		}
	}
	seen = make(map[int]int)
	for c := 0; c < g.Pc; c++ {
		for _, rank := range g.ColGroup(c) {
			seen[rank]++
		}
	}
	if len(seen) != g.P() {
		t.Fatalf("col groups cover %d ranks, want %d", len(seen), g.P())
	}
}

func TestBlockShardPartition(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw) % 10000
		p := 1 + int(pRaw)%64
		covered := 0
		prevHi := 0
		for i := 0; i < p; i++ {
			s := BlockShard(n, p, i)
			if s.Lo != prevHi || s.Len() < 0 {
				return false
			}
			// Balanced: sizes differ by at most one.
			if s.Len() != n/p && s.Len() != n/p+1 {
				return false
			}
			covered += s.Len()
			prevHi = s.Hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Fatal("Pr=0 should be rejected")
	}
	g, err := New(2, 3)
	if err != nil || g.P() != 6 {
		t.Fatalf("New(2,3) = %v, %v", g, err)
	}
	if g.String() != "2x3" {
		t.Fatalf("String = %q", g.String())
	}
}
