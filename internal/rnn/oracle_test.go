package rnn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
)

// oracleOptimizers are the optimizers every oracle test runs under.
var oracleOptimizers = []struct {
	name string
	make nn.OptimizerFactory
}{
	{"sgd", nil},
	{"momentum", func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} }},
	{"nesterov", func() nn.Optimizer { return &nn.Nesterov{LR: 0.05, Mu: 0.8} }},
}

// TestSharedSerialBatchOracle: the Elman and LSTM serial runs share one
// body and reproduce the former per-model runs bit for bit, and the 1.5D
// body on the 1 × P grid reproduces the former batch runs, under SGD,
// momentum and Nesterov. The batch runs match in their whole per-rank
// Stats at every P, and in weights and losses bit for bit where every
// sequence shard's share localB/B is a power of two (P = 1, 2, 4 at
// B = 12): the 1.5D body rescales the logits gradient by it where the
// batch runs rescaled ∆W. At P = 5 (shards of 3 and 2) they agree to
// 1e-15.
func TestSharedSerialBatchOracle(t *testing.T) {
	type run func(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error)
	serial := func(f func(TrainConfig, *Sequences) (parallel.Result, error)) run {
		return func(_ *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) { return f(tc, ds) }
	}
	batch := func(f func(*mpi.World, TrainConfig, *Sequences, grid.Grid) (parallel.Result, error)) run {
		return func(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) {
			return f(w, tc, ds, grid.Grid{Pr: 1, Pc: w.Size()})
		}
	}
	engines := []struct {
		name      string
		got, want run
		ps        []int
	}{
		{"elman-serial", serial(RunSerial), serial(refRunSerial), []int{1}},
		{"elman-batch", batch(RunIntegrated15D), refRunBatch, []int{1, 2, 4, 5}},
		{"lstm-serial", serial(RunLSTMSerial), serial(refRunLSTMSerial), []int{1}},
		{"lstm-batch", batch(RunLSTM15D), refRunLSTMBatch, []int{1, 2, 4, 5}},
	}
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 4}
	ds := SyntheticSequences(cfg, 48, 31)
	for _, e := range engines {
		for _, opt := range oracleOptimizers {
			tc := TrainConfig{Cfg: cfg, Seed: 3, LR: 0.05, Steps: 3, BatchSize: 12, NewOptimizer: opt.make}
			for _, p := range e.ps {
				name := fmt.Sprintf("%s/%s/P=%d", e.name, opt.name, p)
				want, err := e.want(mpi.NewWorld(p, testMachine()), tc, ds)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := e.got(mpi.NewWorld(p, testMachine()), tc, ds)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch {
				case !reflect.DeepEqual(got.Stats, want.Stats):
					t.Fatalf("%s: per-rank Stats differ from the reference run", name)
				case p == 5:
					if d, dl := maxDev(got.Weights, want.Weights), maxLossDev(got.Losses, want.Losses); d > 1e-15 || dl > 1e-15 {
						t.Fatalf("%s: weights deviate by %g, losses by %g", name, d, dl)
					}
				case !reflect.DeepEqual(got, want):
					t.Fatalf("%s: Result differs from the reference run", name)
				}
			}
		}
	}
}

// maxLossDev is the largest per-step loss difference.
func maxLossDev(a, b []float64) float64 {
	var worst float64
	for i := range a {
		worst = max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}

// Test15DOracle: the Elman and LSTM 1.5D runs share one BPTT body and
// reproduce the former per-cell engines bit for bit — weights, losses and
// per-rank Stats — under SGD, momentum and Nesterov on every grid shape
// from 1×1 to 4×3 at B = 12.
func Test15DOracle(t *testing.T) {
	type run func(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error)
	engines := []struct {
		name      string
		got, want run
	}{
		{"elman", RunIntegrated15D, refRunIntegrated15D},
		{"lstm", RunLSTM15D, refRunLSTM15D},
	}
	grids := []grid.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 1}, {Pr: 1, Pc: 4}, {Pr: 2, Pc: 2}, {Pr: 4, Pc: 2}, {Pr: 4, Pc: 3}}
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 4}
	ds := SyntheticSequences(cfg, 48, 37)
	for _, e := range engines {
		for _, opt := range oracleOptimizers {
			tc := TrainConfig{Cfg: cfg, Seed: 3, LR: 0.05, Steps: 3, BatchSize: 12, NewOptimizer: opt.make}
			for _, g := range grids {
				name := fmt.Sprintf("%s/%s/%v", e.name, opt.name, g)
				want, err := e.want(mpi.NewWorld(g.P(), testMachine()), tc, ds, g)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := e.got(mpi.NewWorld(g.P(), testMachine()), tc, ds, g)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Result differs from the reference run", name)
				}
			}
		}
	}
}

// TestCostOracle: Cost15D and LSTMCost15D, one pricing loop over each
// cell's sizes, equal the former per-cell formulas exactly over configs,
// batch sizes, every factorization of P and two machines.
func TestCostOracle(t *testing.T) {
	cfgs := []Config{
		{In: 6, Hidden: 8, Classes: 4, T: 1},
		{In: 128, Hidden: 256, Classes: 32, T: 20},
		{In: 1024, Hidden: 4096, Classes: 64, T: 7},
		{In: 3, Hidden: 5, Classes: 1000, T: 64},
	}
	for _, m := range []machine.Machine{machine.CoriKNL(), testMachine()} {
		for _, cfg := range cfgs {
			for _, B := range []int{1, 7, 64, 1000} {
				for _, P := range []int{1, 6, 64, 96} {
					for _, g := range grid.Factorizations(P) {
						if got, want := Cost15D(cfg, B, g, m), refCost15D(cfg, B, g, m); got != want {
							t.Fatalf("%s %+v B=%d %v: Cost15D %+v, reference %+v", m.Name, cfg, B, g, got, want)
						}
						if got, want := LSTMCost15D(cfg, B, g, m), refLSTMCost15D(cfg, B, g, m); got != want {
							t.Fatalf("%s %+v B=%d %v: LSTMCost15D %+v, reference %+v", m.Name, cfg, B, g, got, want)
						}
					}
				}
			}
		}
	}
}
