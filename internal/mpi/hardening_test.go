package mpi

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestRandomGroupAllReduce: property test — arbitrary disjoint communicator
// partitions all-reduce correctly and independently.
func TestRandomGroupAllReduce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(10)
		// Random partition of ranks into groups.
		perm := rng.Perm(p)
		var groups [][]int
		for i := 0; i < p; {
			size := 1 + rng.Intn(p-i)
			g := append([]int(nil), perm[i:i+size]...)
			sort.Ints(g)
			groups = append(groups, g)
			i += size
		}
		groupOf := make(map[int][]int)
		wantSum := make(map[int]float64) // keyed by first rank of group
		for _, g := range groups {
			var sum float64
			for _, r := range g {
				groupOf[r] = g
				sum += float64(r + 1)
			}
			wantSum[g[0]] = sum
		}
		w := NewWorld(p, testMachine())
		var mu sync.Mutex
		ok := true
		w.Run(func(proc *Proc) {
			g := groupOf[proc.Rank()]
			comm := proc.CommFrom(g)
			got := comm.AllReduceSum([]float64{float64(proc.Rank() + 1)})
			if math.Abs(got[0]-wantSum[g[0]]) > 1e-12 {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOPerPair: messages between a fixed (src, dst) pair are delivered
// in send order.
func TestFIFOPerPair(t *testing.T) {
	w := NewWorld(2, testMachine())
	const n = 50
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.ISend(1, 7, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got := p.Recv(0, 7)
				if got[0] != float64(i) {
					t.Errorf("message %d arrived out of order (got %v)", i, got[0])
					return
				}
			}
		}
	})
}

// TestTagMismatchPanics: a wrong-tag receive is a programming error and
// must fail loudly, not silently mis-deliver.
func TestTagMismatchPanics(t *testing.T) {
	w := NewWorld(2, testMachine())
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 3, []float64{1})
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic on tag mismatch")
			}
		}()
		p.Recv(0, 4)
	})
}

// TestClocksPersistAcrossRuns: a World models one job; successive Run
// calls start every rank's clock at 0 and accumulate the stats.
func TestClocksPersistAcrossRuns(t *testing.T) {
	w := NewWorld(2, testMachine())
	exchange := func(p *Proc) {
		p.Send(1-p.Rank(), 1, make([]float64, 10))
		p.Recv(1-p.Rank(), 1)
	}
	w.Run(func(p *Proc) { p.Tick(1.5); exchange(p) })
	w.Run(func(p *Proc) {
		if p.Clock() != 0 {
			// Clocks are per-Proc and reset per Run in this design; the
			// accumulated view lives in Stats.
			t.Errorf("unexpected clock %g", p.Clock())
		}
		exchange(p)
	})
	for _, s := range w.Stats() {
		if s.Messages != 2 || s.WordsSent != 20 {
			t.Fatalf("rank %d sent %d messages / %d words over two runs, want 2 / 20", s.Rank, s.Messages, s.WordsSent)
		}
	}
}

// TestBruckNonPowerOfTwoVolume: Bruck's total sent volume is exactly
// (p−1)/p·n for every p, power of two or not.
func TestBruckNonPowerOfTwoVolume(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7, 9, 12} {
		block := 64
		w := NewWorld(p, testMachine())
		w.Run(func(proc *Proc) {
			proc.WorldComm().AllGather(make([]float64, block))
		})
		want := int64((p - 1) * block)
		for _, s := range w.Stats() {
			if s.WordsSent != want {
				t.Fatalf("p=%d rank %d sent %d words, want %d", p, s.Rank, s.WordsSent, want)
			}
		}
	}
}

// TestRingAllReduceVolume: the non-power-of-two ring fallback also moves
// exactly 2·(p−1)/p·n words per rank (bandwidth-optimal), give or take
// block rounding.
func TestRingAllReduceVolume(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		n := 840 // divisible by 3,5,6,7 → exact blocks
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

// TestEmptyAllReduce: zero-length vectors are legal (used by Barrier-like
// patterns) and cost only latency.
func TestEmptyAllReduce(t *testing.T) {
	w := NewWorld(4, testMachine())
	w.Run(func(p *Proc) {
		out := p.WorldComm().AllReduceSum(nil)
		if len(out) != 0 {
			t.Errorf("empty all-reduce returned %d elements", len(out))
		}
	})
}

// TestConcurrentDisjointComms: row and column communicators of a grid can
// run collectives concurrently without interference (the Fig. 5 pattern
// under load).
func TestConcurrentDisjointComms(t *testing.T) {
	// 4×4 grid, 100 rounds of interleaved row/col reductions.
	const pr, pc, rounds = 4, 4, 100
	w := NewWorld(pr*pc, testMachine())
	var mu sync.Mutex
	bad := false
	w.Run(func(p *Proc) {
		r, c := p.Rank()/pc, p.Rank()%pc
		var rowG, colG []int
		for j := 0; j < pc; j++ {
			rowG = append(rowG, r*pc+j)
		}
		for i := 0; i < pr; i++ {
			colG = append(colG, i*pc+c)
		}
		row := p.CommFrom(rowG)
		colComm := p.CommFrom(colG)
		for k := 0; k < rounds; k++ {
			rs := row.AllReduceSum([]float64{1})
			cs := colComm.AllReduceSum([]float64{1})
			if rs[0] != pc || cs[0] != pr {
				mu.Lock()
				bad = true
				mu.Unlock()
				return
			}
		}
	})
	if bad {
		t.Fatal("interleaved row/col collectives interfered")
	}
}
