package rnn

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
)

// TestLSTMGradientCheck validates the full LSTM BPTT (gates, cell path,
// packed layout) against central differences.
func TestLSTMGradientCheck(t *testing.T) {
	cfg := Config{In: 5, Hidden: 6, Classes: 4, T: 4}
	m := NewLSTM(cfg, 3)
	ds := SyntheticSequences(cfg, 6, 7)
	xs, labels := ds.Batch(0, 6)
	_, grads := m.ForwardBackward(xs, labels)
	rng := rand.New(rand.NewSource(13))
	const eps = 1e-6
	for wi := range m.Weights {
		for trial := 0; trial < 8; trial++ {
			idx := rng.Intn(len(m.Weights[wi].Data))
			orig := m.Weights[wi].Data[idx]
			m.Weights[wi].Data[idx] = orig + eps
			lp := m.Loss(xs, labels)
			m.Weights[wi].Data[idx] = orig - eps
			lm := m.Loss(xs, labels)
			m.Weights[wi].Data[idx] = orig
			want := (lp - lm) / (2 * eps)
			got := grads[wi].Data[idx]
			diff := math.Abs(got - want)
			scale := math.Max(1e-4, math.Max(math.Abs(got), math.Abs(want)))
			if diff/scale > 1e-3 {
				t.Errorf("weight %d idx %d: analytic %.8g vs numeric %.8g", wi, idx, got, want)
			}
		}
	}
}

// TestLSTMLearns: a short run reduces the loss.
func TestLSTMLearns(t *testing.T) {
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 5}
	ds := SyntheticSequences(cfg, 64, 5)
	tc := TrainConfig{Cfg: cfg, Seed: 1, LR: 0.2, Steps: 30, BatchSize: 16}
	res, err := RunLSTMSerial(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if last := res.Losses[len(res.Losses)-1]; last >= res.Losses[0] {
		t.Fatalf("LSTM failed to learn: %g → %g", res.Losses[0], last)
	}
}

// TestLSTMBatchMatchesSerial: distributed LSTM BPTT is gradient-exact.
func TestLSTMBatchMatchesSerial(t *testing.T) {
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 5}
	ds := SyntheticSequences(cfg, 48, 13)
	tc := TrainConfig{Cfg: cfg, Seed: 3, LR: 0.05, Steps: 4, BatchSize: 12}
	want, err := RunLSTMSerial(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4} {
		got, err := RunLSTMBatch(mpi.NewWorld(p, testMachine()), tc, ds)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := maxDev(got.Weights, want.Weights); d > 1e-9 {
			t.Fatalf("P=%d: LSTM batch deviates by %g", p, d)
		}
	}
}

// TestLSTM15DMatchesSerialAllGrids: the 1.5D LSTM engine is gradient-exact
// on every grid shape, and at B = 7, where the column groups get unequal
// sequence shards.
func TestLSTM15DMatchesSerialAllGrids(t *testing.T) {
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 5}
	ds := SyntheticSequences(cfg, 48, 17)
	for _, B := range []int{12, 7} {
		tc := TrainConfig{Cfg: cfg, Seed: 5, LR: 0.05, Steps: 4, BatchSize: B}
		want, err := RunLSTMSerial(tc, ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []grid.Grid{{Pr: 1, Pc: 4}, {Pr: 2, Pc: 2}, {Pr: 4, Pc: 1}, {Pr: 2, Pc: 3}} {
			got, err := RunLSTM15D(mpi.NewWorld(g.P(), testMachine()), tc, ds, g)
			if err != nil {
				t.Fatalf("B=%d grid %v: %v", B, g, err)
			}
			if d := maxDev(got.Weights, want.Weights); d > 1e-9 {
				t.Fatalf("B=%d grid %v: 1.5D LSTM deviates by %g", B, g, d)
			}
			for i := range got.Losses {
				if math.Abs(got.Losses[i]-want.Losses[i]) > 1e-9 {
					t.Fatalf("B=%d grid %v: loss %d deviates", B, g, i)
				}
			}
		}
	}
}

// TestLSTMMomentumExact: stateful optimizer stays exact under LSTM
// sharding.
func TestLSTMMomentumExact(t *testing.T) {
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 4}
	ds := SyntheticSequences(cfg, 32, 23)
	tc := TrainConfig{
		Cfg: cfg, Seed: 7, LR: 0.05, Steps: 4, BatchSize: 8,
		NewOptimizer: func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} },
	}
	want, err := RunLSTMSerial(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLSTM15D(mpi.NewWorld(4, testMachine()), tc, ds, grid.Grid{Pr: 2, Pc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDev(got.Weights, want.Weights); d > 1e-9 {
		t.Fatalf("LSTM momentum deviates by %g", d)
	}
}

// TestLSTMValidation covers engine rejection paths.
func TestLSTMValidation(t *testing.T) {
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 3}
	ds := SyntheticSequences(cfg, 16, 1)
	tc := TrainConfig{Cfg: cfg, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}
	if _, err := RunLSTMBatch(mpi.NewWorld(8, testMachine()), tc, ds); err == nil {
		t.Fatal("P > B should be rejected")
	}
	w := mpi.NewWorld(3, testMachine())
	if _, err := RunLSTM15D(w, tc, ds, grid.Grid{Pr: 3, Pc: 1}); err == nil {
		t.Fatal("hidden=8 indivisible by Pr=3 should be rejected")
	}
	if _, err := RunLSTM15D(mpi.NewWorld(4, testMachine()), tc, ds, grid.Grid{Pr: 2, Pc: 3}); err == nil {
		t.Fatal("grid/world mismatch should be rejected")
	}
	if _, err := RunLSTM15D(mpi.NewWorld(8, testMachine()), tc, ds, grid.Grid{Pr: 1, Pc: 8}); err == nil {
		t.Fatal("Pc=8 > B=4 should be rejected")
	}
}

// TestLSTMPackedShardAlignment: the packed 4h gate matrix shards into
// equal blocks whenever h % Pr == 0, keeping every gather well-formed.
func TestLSTMPackedShardAlignment(t *testing.T) {
	cfg := Config{In: 4, Hidden: 8, Classes: 4, T: 2}
	m := NewLSTM(cfg, 1)
	for _, pr := range []int{1, 2, 4, 8} {
		rows := 0
		for r := 0; r < pr; r++ {
			rows += parallel.RowShard(m.Weights[0], pr, r).Rows
		}
		if rows != 4*cfg.Hidden {
			t.Fatalf("Pr=%d: shards cover %d rows, want %d", pr, rows, 4*cfg.Hidden)
		}
	}
}
