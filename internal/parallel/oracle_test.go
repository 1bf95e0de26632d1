package parallel

import (
	"fmt"
	"reflect"
	"testing"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
)

// oracleOptimizers are the update rules every oracle case runs under.
var oracleOptimizers = []struct {
	name string
	make nn.OptimizerFactory
}{
	{"sgd", nil},
	{"momentum", func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} }},
	{"nesterov", func() nn.Optimizer { return &nn.Nesterov{LR: 0.05, Mu: 0.8} }},
}

// sameRun asserts that two engine runs agree exactly: both fail, or both
// succeed with DeepEqual Results (weights, losses and per-rank Stats). It
// reports whether the runs succeeded.
func sameRun(t *testing.T, name string, got Result, gotErr error, want Result, wantErr error) bool {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Result differs from the reference engine\n got  losses %v\n want losses %v", name, got.Losses, want.Losses)
	}
	return wantErr == nil
}

// TestFullIntegratedNoConvOracle: on a network without a spatial prefix,
// RunFullIntegrated is the 1.5D algorithm of Fig. 5 — bit-identical to
// the former FC-only engine on every grid shape, pure ends included.
func TestFullIntegratedNoConvOracle(t *testing.T) {
	nets := []*nn.Network{nn.MLP("m", 24, 16, 8, 4), nn.MLP("verify-mlp", 32, 16, 8, 8)}
	grids := []grid.Grid{{Pr: 1, Pc: 1}, {Pr: 1, Pc: 2}, {Pr: 2, Pc: 1}, {Pr: 2, Pc: 2}, {Pr: 1, Pc: 4}, {Pr: 4, Pc: 1}, {Pr: 4, Pc: 2}}
	for _, spec := range nets {
		ds := data.Synthetic(64, spec.Input, spec.Output().C, 43)
		for _, opt := range oracleOptimizers[:2] {
			cfg := Config{Spec: spec, Seed: 47, LR: 0.05, Steps: 4, BatchSize: 16, NewOptimizer: opt.make}
			for _, g := range grids {
				want, wantErr := refRunIntegrated15D(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g)
				got, gotErr := RunFullIntegrated(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g)
				if !sameRun(t, spec.Name+"/"+opt.name+"/"+g.String(), got, gotErr, want, wantErr) {
					t.Fatalf("%s/%s/%v: %v", spec.Name, opt.name, g, wantErr)
				}
			}
		}
	}
}

// divisibleDropoutNet is a conv net whose every OutC/OutN splits 2 and 4
// ways, with Dropout in its classifier.
func divisibleDropoutNet() *nn.Network {
	n := &nn.Network{
		Name:  "TinyConvDivDropout",
		Input: nn.Shape{H: 12, W: 12, C: 3},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.Pool, Name: "pool1", KH: 2, KW: 2, Stride: 2},
			{Kind: nn.Conv, Name: "conv2", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.FC, Name: "fc1", OutN: 16},
			{Kind: nn.Dropout, Name: "drop1", Rate: 0.5},
			{Kind: nn.FC, Name: "fc2", OutN: 8},
		},
	}
	if err := n.Infer(); err != nil {
		panic(err)
	}
	return n
}

// lrnNet puts LRN between the conv front and the classifier.
func lrnNet() *nn.Network {
	n := &nn.Network{
		Name:  "LRNDiv",
		Input: nn.Shape{H: 8, W: 8, C: 3},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.LRN, Name: "lrn1"},
			{Kind: nn.FC, Name: "fc1", OutN: 8},
		},
	}
	if err := n.Infer(); err != nil {
		panic(err)
	}
	return n
}

// TestModelOracle: RunModel with its FC suffix on fc15D (a P × 1 grid) is
// bit-identical to the former all-layer model engine. Where a layer does
// not split P ways, both engines must reject.
func TestModelOracle(t *testing.T) {
	nets := []*nn.Network{nn.MLP("m", 20, 16, 8, 4), nn.TinyConvNet(), divisibleDropoutNet(), lrnNet(), domainNet()}
	ran := 0
	for _, spec := range nets {
		ds := data.Synthetic(32, spec.Input, spec.Output().C, 17)
		for _, opt := range oracleOptimizers {
			cfg := Config{Spec: spec, Seed: 21, LR: 0.05, Steps: 3, BatchSize: 8, NewOptimizer: opt.make}
			for _, p := range []int{1, 2, 4} {
				want, wantErr := refRunModel(mpi.NewWorld(p, testMachine()), cfg, ds)
				got, gotErr := RunModel(mpi.NewWorld(p, testMachine()), cfg, ds)
				if sameRun(t, fmt.Sprintf("%s/%s/P=%d", spec.Name, opt.name, p), got, gotErr, want, wantErr) {
					ran++
				}
			}
		}
	}
	// TinyConvNet (10 classes) and DomainNet (6 conv1 filters) are
	// rejected at P = 4.
	if want := 3 * (5*3 - 2); ran != want {
		t.Fatalf("%d of the cases trained, want %d", ran, want)
	}
}
