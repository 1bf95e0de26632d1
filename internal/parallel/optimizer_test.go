package parallel

import (
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
)

// TestMomentumExactAcrossEngines: gradient-exactness extends to stateful
// first-order methods — every engine reproduces the serial *momentum*
// trajectory, because the element-wise update commutes with sharding
// (the paper's "generalizes to other first-order methods" claim, made
// executable).
func TestMomentumExactAcrossEngines(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(48, spec.Input, 8, 201)
	cfg := Config{
		Spec: spec, Seed: 7, LR: 0.05, Steps: 6, BatchSize: 12,
		NewOptimizer: func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} },
	}
	want := serialOracle(t, cfg, ds)

	got, err := RunFullIntegrated(mpi.NewWorld(4, testMachine()), cfg, ds, grid.Grid{Pr: 1, Pc: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("batch momentum deviates by %g", d)
	}

	got, err = RunFullIntegrated(mpi.NewWorld(2, testMachine()), cfg, ds, grid.Grid{Pr: 2, Pc: 1}, costmodel.UniformAssignment(spec, costmodel.Domain))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("domain momentum deviates by %g", d)
	}

	got, err = RunFullIntegrated(mpi.NewWorld(4, testMachine()), cfg, ds, grid.Grid{Pr: 2, Pc: 2}, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("full-integrated momentum deviates by %g", d)
	}
}

// TestNesterovExactOnMLPGrids: Nesterov across 1.5D grids matches serial.
func TestNesterovExactOnMLPGrids(t *testing.T) {
	spec := nn.MLP("m", 24, 16, 8, 4)
	ds := data.Synthetic(64, spec.Input, 4, 207)
	cfg := Config{
		Spec: spec, Seed: 9, LR: 0.04, Steps: 5, BatchSize: 16,
		NewOptimizer: func() nn.Optimizer { return &nn.Nesterov{LR: 0.04, Mu: 0.8} },
	}
	want := serialOracle(t, cfg, ds)
	for _, g := range []grid.Grid{{Pr: 1, Pc: 4}, {Pr: 2, Pc: 2}, {Pr: 4, Pc: 1}} {
		got, err := RunFullIntegrated(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g, nil)
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("grid %v: Nesterov deviates by %g", g, d)
		}
	}
}

// TestModelEngineMomentum: sharded momentum state in the pure model
// engine (velocity lives with the weight shard).
func TestModelEngineMomentum(t *testing.T) {
	spec := nn.MLP("m", 20, 16, 8, 4)
	ds := data.Synthetic(48, spec.Input, 4, 211)
	cfg := Config{
		Spec: spec, Seed: 11, LR: 0.05, Steps: 5, BatchSize: 12,
		NewOptimizer: func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} },
	}
	want := serialOracle(t, cfg, ds)
	got, err := RunFullIntegrated(mpi.NewWorld(4, testMachine()), cfg, ds, grid.Grid{Pr: 4, Pc: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("model momentum deviates by %g", d)
	}
}
