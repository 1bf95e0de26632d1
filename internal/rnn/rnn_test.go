package rnn

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

func testMachine() machine.Machine {
	return machine.Machine{Name: "test", Alpha: 1e-6, Beta: 1e-9, PeakFlops: 1e12}
}

func testCfg() Config { return Config{In: 6, Hidden: 8, Classes: 4, T: 5} }

// TestBPTTGradientCheck validates the backward pass against central
// differences over all three weight matrices.
func TestBPTTGradientCheck(t *testing.T) {
	cfg := testCfg()
	m := NewModel(cfg, 3)
	ds := SyntheticSequences(cfg, 6, 7)
	xs, labels := ds.Batch(0, 6)
	_, grads := m.ForwardBackward(xs, labels)
	rng := rand.New(rand.NewSource(11))
	const eps = 1e-6
	for wi := range m.Weights {
		for trial := 0; trial < 6; trial++ {
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

func TestTanhKernels(t *testing.T) {
	x := tensor.FromSlice(1, 3, []float64{-1, 0, 2})
	h := TanhForward(x)
	for i, v := range x.Data {
		if math.Abs(h.Data[i]-math.Tanh(v)) > 1e-15 {
			t.Fatal("tanh forward mismatch")
		}
	}
	dy := tensor.FromSlice(1, 3, []float64{1, 1, 1})
	dx := TanhBackward(dy, h)
	for i := range dx.Data {
		want := 1 - h.Data[i]*h.Data[i]
		if math.Abs(dx.Data[i]-want) > 1e-15 {
			t.Fatal("tanh backward mismatch")
		}
	}
}

func TestTrainingLearns(t *testing.T) {
	cfg := testCfg()
	ds := SyntheticSequences(cfg, 64, 5)
	tc := TrainConfig{Cfg: cfg, Seed: 1, LR: 0.1, Steps: 30, BatchSize: 16}
	res, err := RunSerial(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if last := res.Losses[len(res.Losses)-1]; last >= res.Losses[0] {
		t.Fatalf("BPTT failed to learn: %g → %g", res.Losses[0], last)
	}
}

func maxDev(a, b []*tensor.Matrix) float64 {
	var worst float64
	for i := range a {
		if d := a[i].MaxAbsDiff(b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBatchMatchesSerial: distributed BPTT is gradient-exact.
func TestBatchMatchesSerial(t *testing.T) {
	cfg := testCfg()
	ds := SyntheticSequences(cfg, 48, 13)
	tc := TrainConfig{Cfg: cfg, Seed: 3, LR: 0.05, Steps: 5, BatchSize: 12}
	want, err := RunSerial(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4} {
		got, err := RunBatch(mpi.NewWorld(p, testMachine()), tc, ds)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := maxDev(got.Weights, want.Weights); d > 1e-9 {
			t.Fatalf("P=%d: batch BPTT deviates by %g", p, d)
		}
		for i := range got.Losses {
			if math.Abs(got.Losses[i]-want.Losses[i]) > 1e-9 {
				t.Fatalf("P=%d: loss %d deviates", p, i)
			}
		}
	}
}

// TestIntegrated15DMatchesSerialAllGrids: the 1.5D recurrent engine is
// gradient-exact on every grid shape, including the pure ends, and at
// B = 7, where no Pc > 1 divides the batch and the column groups get
// unequal sequence shards.
func TestIntegrated15DMatchesSerialAllGrids(t *testing.T) {
	cfg := testCfg()
	ds := SyntheticSequences(cfg, 48, 17)
	for _, B := range []int{12, 7} {
		tc := TrainConfig{Cfg: cfg, Seed: 5, LR: 0.05, Steps: 5, BatchSize: B}
		want, err := RunSerial(tc, ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []grid.Grid{{Pr: 1, Pc: 4}, {Pr: 2, Pc: 2}, {Pr: 4, Pc: 1}, {Pr: 2, Pc: 3}, {Pr: 4, Pc: 2}} {
			got, err := RunIntegrated15D(mpi.NewWorld(g.P(), testMachine()), tc, ds, g)
			if err != nil {
				t.Fatalf("B=%d grid %v: %v", B, g, err)
			}
			if d := maxDev(got.Weights, want.Weights); d > 1e-9 {
				t.Fatalf("B=%d grid %v: 1.5D BPTT deviates by %g", B, g, d)
			}
			for i := range got.Losses {
				if math.Abs(got.Losses[i]-want.Losses[i]) > 1e-9 {
					t.Fatalf("B=%d grid %v: loss %d deviates", B, g, i)
				}
			}
		}
	}
}

// TestBestGridWinnersTrain: every grid BestGrid picks is one both 1.5D
// engines accept — the search and the engines read one rule.
func TestBestGridWinnersTrain(t *testing.T) {
	cfg := Config{In: 4, Hidden: 8, Classes: 4, T: 2}
	ds := SyntheticSequences(cfg, 16, 23)
	for _, B := range []int{3, 5, 6, 7, 9, 10, 12} {
		for _, P := range []int{2, 4, 8} {
			g, _, ok := BestGrid(cfg, B, P, testMachine())
			if !ok {
				t.Fatalf("B=%d P=%d: no grid fits", B, P)
			}
			tc := TrainConfig{Cfg: cfg, Seed: 1, LR: 0.1, Steps: 1, BatchSize: B}
			if _, err := RunIntegrated15D(mpi.NewWorld(P, testMachine()), tc, ds, g); err != nil {
				t.Fatalf("B=%d P=%d: BestGrid chose %v, Elman engine: %v", B, P, g, err)
			}
			if _, err := RunLSTM15D(mpi.NewWorld(P, testMachine()), tc, ds, g); err != nil {
				t.Fatalf("B=%d P=%d: BestGrid chose %v, LSTM engine: %v", B, P, g, err)
			}
		}
	}
}

// TestMomentumExactRNN: stateful optimizers stay exact under sharding.
func TestMomentumExactRNN(t *testing.T) {
	cfg := testCfg()
	ds := SyntheticSequences(cfg, 48, 29)
	tc := TrainConfig{
		Cfg: cfg, Seed: 7, LR: 0.05, Steps: 5, BatchSize: 12,
		NewOptimizer: func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} },
	}
	want, err := RunSerial(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunIntegrated15D(mpi.NewWorld(4, testMachine()), tc, ds, grid.Grid{Pr: 2, Pc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDev(got.Weights, want.Weights); d > 1e-9 {
		t.Fatalf("momentum 1.5D BPTT deviates by %g", d)
	}
}

// TestValidation covers engine rejection paths.
func TestValidation(t *testing.T) {
	cfg := testCfg()
	ds := SyntheticSequences(cfg, 16, 1)
	tc := TrainConfig{Cfg: cfg, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}
	if _, err := RunBatch(mpi.NewWorld(8, testMachine()), tc, ds); err == nil {
		t.Fatal("P > B should be rejected")
	}
	if _, err := RunIntegrated15D(mpi.NewWorld(4, testMachine()), tc, ds, grid.Grid{Pr: 3, Pc: 1}); err == nil {
		t.Fatal("grid/world mismatch should be rejected")
	}
	w := mpi.NewWorld(3, testMachine())
	if _, err := RunIntegrated15D(w, tc, ds, grid.Grid{Pr: 3, Pc: 1}); err == nil {
		t.Fatal("hidden=8 indivisible by Pr=3 should be rejected")
	}
	if _, err := RunIntegrated15D(mpi.NewWorld(8, testMachine()), tc, ds, grid.Grid{Pr: 1, Pc: 8}); err == nil {
		t.Fatal("Pc=8 > B=4 should be rejected")
	}
	bad := TrainConfig{Cfg: Config{}, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}
	if _, err := RunSerial(bad, ds); err == nil {
		t.Fatal("empty config should be rejected")
	}
}
