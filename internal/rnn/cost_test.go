package rnn

import (
	"math"
	"testing"
	"testing/quick"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/parallel"
)

func bwOnly() machine.Machine {
	return machine.Machine{Name: "bw", Alpha: 0, Beta: 1e-9, PeakFlops: 1}
}

// TestCost15DReducesToPureBatch: Pr = 1 leaves only the single weight
// all-reduce of Eq. 4, independent of both B and T.
func TestCost15DReducesToPureBatch(t *testing.T) {
	cfg := Config{In: 128, Hidden: 256, Classes: 32, T: 20}
	m := machine.CoriKNL()
	f := func(pRaw uint8, bRaw uint16) bool {
		p := 2 + int(pRaw)%126
		b := p + int(bRaw)%1024
		a := Cost15D(cfg, b, grid.Grid{Pr: 1, Pc: p}, m).Total()
		want := collective.AllReduce(p, float64(cfg.Weights()), m).Total()
		return math.Abs(a-want) < 1e-15*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLongerSequencesFavorBatch: the recurrent twist on Eq. 5 — weight
// gradients are reduced once per iteration while hidden panels move every
// timestep, so growing T pushes the comm-optimal grid toward Pc = P.
func TestLongerSequencesFavorBatch(t *testing.T) {
	m := machine.CoriKNL()
	const B, P = 256, 64
	prevPr := 1 << 30
	for _, T := range []int{1, 8, 64, 512} {
		cfg := Config{In: 1024, Hidden: 4096, Classes: 64, T: T}
		g, _, ok := BestGrid(cfg, B, P, m)
		if !ok {
			t.Fatalf("T=%d: no grid fits", T)
		}
		if g.Pr > prevPr {
			t.Fatalf("T=%d: best Pr=%d grew past %d — longer sequences should favor batch", T, g.Pr, prevPr)
		}
		prevPr = g.Pr
	}
	// And at T=1 with a big model / small batch, model parallelism should
	// carry some of the work.
	cfg := Config{In: 1024, Hidden: 4096, Classes: 64, T: 1}
	g, _, ok := BestGrid(cfg, 16, P, m)
	if !ok {
		t.Fatal("T=1, B=16: no grid fits")
	}
	if g.Pr == 1 {
		t.Fatal("T=1, B=16 on a 21M-weight RNN should use Pr > 1")
	}
}

// TestBestGridNeverWorseThanPure: the integrated search dominates both
// pure configurations whenever they are feasible.
func TestBestGridNeverWorseThanPure(t *testing.T) {
	m := machine.CoriKNL()
	cfg := Config{In: 512, Hidden: 2048, Classes: 128, T: 16}
	for _, pb := range []struct{ P, B int }{{16, 64}, {64, 256}, {128, 128}} {
		_, best, ok := BestGrid(cfg, pb.B, pb.P, m)
		if !ok {
			t.Fatalf("P=%d B=%d: no grid fits", pb.P, pb.B)
		}
		pure := Cost15D(cfg, pb.B, grid.Grid{Pr: 1, Pc: pb.P}, m)
		if best.Total() > pure.Total()+1e-15 {
			t.Fatalf("P=%d B=%d: best %g worse than pure batch %g", pb.P, pb.B, best.Total(), pure.Total())
		}
	}
}

// TestBestGridNoFit: when no factorization of P fits — here every grid
// with Pc ≤ B = 8 has Pr ≥ 8, and none of those divides 10 classes —
// BestGrid reports it instead of a 0x0 grid.
func TestBestGridNoFit(t *testing.T) {
	cfg := Config{In: 8, Hidden: 32, Classes: 10, T: 4}
	if g, c, ok := BestGrid(cfg, 8, 64, machine.CoriKNL()); ok {
		t.Fatalf("B=8 P=64: got grid %v at %g s, want no fit", g, c.Total())
	}
	// At B = 32 the 2x32 grid fits (Pr = 2 divides both widths).
	if g, _, ok := BestGrid(cfg, 32, 64, machine.CoriKNL()); !ok || g.P() != 64 {
		t.Fatalf("B=32 P=64: got grid %v ok=%v, want a 64-process grid", g, ok)
	}
}

// TestEngineCommMatchesCost15D ties each executable 1.5D BPTT engine to
// its analytic model: measured virtual comm per step (α = 0 machine)
// equals the Cost15D or LSTMCost15D bandwidth prediction.
func TestEngineCommMatchesCost15D(t *testing.T) {
	cells := []struct {
		name string
		run  func(*mpi.World, TrainConfig, *Sequences, grid.Grid) (parallel.Result, error)
		cost func(Config, int, grid.Grid, machine.Machine) collective.Cost
	}{
		{"elman", RunIntegrated15D, Cost15D},
		{"lstm", RunLSTM15D, LSTMCost15D},
	}
	cfg := Config{In: 8, Hidden: 16, Classes: 4, T: 6}
	ds := SyntheticSequences(cfg, 32, 41)
	m := bwOnly()
	g := grid.Grid{Pr: 2, Pc: 2}
	for _, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			run := func(steps int) float64 {
				tc := TrainConfig{Cfg: cfg, Seed: 3, LR: 0.01, Steps: steps, BatchSize: 8}
				res, err := cl.run(mpi.NewWorld(g.P(), m), tc, ds, g)
				if err != nil {
					t.Fatal(err)
				}
				var worst float64
				for _, s := range res.Stats {
					if s.CommTime > worst {
						worst = s.CommTime
					}
				}
				return worst
			}
			measured := (run(6) - run(3)) / 3
			predicted := cl.cost(cfg, 8, g, m).Total()
			// The loss scalar all-reduce adds a couple of words; allow 2%.
			if rel := math.Abs(measured-predicted) / predicted; rel > 0.02 {
				t.Fatalf("engine comm %.6g vs predicted %.6g (rel %.3f)", measured, predicted, rel)
			}
		})
	}
}

// TestWeightTermIndependentOfT: the weight all-reduce term does not grow
// with sequence length (shared weights).
func TestWeightTermIndependentOfT(t *testing.T) {
	m := machine.CoriKNL()
	g := grid.Grid{Pr: 4, Pc: 16}
	short := Cost15D(Config{In: 64, Hidden: 128, Classes: 16, T: 2}, 64, g, m)
	long := Cost15D(Config{In: 64, Hidden: 128, Classes: 16, T: 200}, 64, g, m)
	wTerm := collective.AllReduce(g.Pc, float64(Config{In: 64, Hidden: 128, Classes: 16, T: 1}.Weights())/float64(g.Pr), m).Total()
	// Subtracting the T-scaled terms: long − short = 198 × per-step terms;
	// both contain exactly one weight term.
	perStep := (long.Total() - short.Total()) / 198
	reconstructed := short.Total() - 2*perStep
	if reconstructed < wTerm*0.5 {
		t.Fatalf("weight term should survive in the T→0 extrapolation: %g vs %g", reconstructed, wTerm)
	}
}
