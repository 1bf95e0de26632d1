package parallel

import (
	"fmt"
	"reflect"
	"testing"

	"dnnparallel/internal/costmodel"
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
				got, gotErr := RunFullIntegrated(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g, nil)
				if !sameRun(t, spec.Name+"/"+opt.name+"/"+g.String(), got, gotErr, want, wantErr) {
					t.Fatalf("%s/%s/%v: %v", spec.Name, opt.name, g, wantErr)
				}
			}
		}
	}
}

// allReduceMessages is the number of messages one rank sends in one
// all-reduce over p ranks: recursive halving and doubling when p is a
// power of two, the ring otherwise.
func allReduceMessages(p int) int64 {
	if p&(p-1) != 0 {
		return 2 * int64(p-1)
	}
	var m int64
	for ; p > 1; p /= 2 {
		m += 2
	}
	return m
}

// TestBatchOracle: RunFullIntegrated on the 1 × P grid is the former batch
// engine with its one flattened ∆W all-reduce per step split into one per
// weighted layer, as Eq. 4 prices it. Under every oracle optimizer, at
// B = 8 and 16 and P = 1 … 8:
//
//   - weights and losses are bit-identical when P is a power of two (the
//     recursive all-reduce sums each element in the same tree, and every
//     localB/B is a power of two, so rescaling the logits gradient equals
//     rescaling ∆W), and within 1e-15 under the ring of P = 3 and 5;
//   - the ranks send the same words in all; when P is a power of two each
//     rank does, while the ring's per-rank share moves with each
//     vector's length mod P;
//   - every rank sends the messages of L_w − 1 more all-reduces per step,
//     for L_w weighted layers.
//
// Under the race detector each (net, B, P) case runs one optimizer in
// rotation, as in checkAssignmentOracles.
func TestBatchOracle(t *testing.T) {
	nets := []*nn.Network{nn.MLP("m", 24, 16, 8, 4), nn.TinyConvNet(), domainNet(), tinyConvDivNet(), lrn6Net()}
	c := 0
	for _, spec := range nets {
		ds := data.Synthetic(32, spec.Input, spec.Output().C, 19)
		extra := int64(len(spec.WeightedLayers()) - 1)
		for _, b := range []int{8, 16} {
			for _, p := range []int{1, 2, 3, 4, 5, 8} {
				c++
				for i, opt := range oracleOptimizers {
					if raceDetector && c%len(oracleOptimizers) != i {
						continue
					}
					name := fmt.Sprintf("%s/B=%d/P=%d/%s", spec.Name, b, p, opt.name)
					cfg := Config{Spec: spec, Seed: 23, LR: 0.05, Steps: 2, BatchSize: b, NewOptimizer: opt.make}
					want, err := refRunBatch(mpi.NewWorld(p, testMachine()), cfg, ds)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					got, err := RunFullIntegrated(mpi.NewWorld(p, testMachine()), cfg, ds, grid.Grid{Pr: 1, Pc: p}, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if p&(p-1) == 0 {
						if !reflect.DeepEqual(got.Weights, want.Weights) || !reflect.DeepEqual(got.Losses, want.Losses) {
							t.Fatalf("%s: weights or losses differ from the batch engine", name)
						}
					} else if dw, dl := maxWeightDiff(got.Weights, want.Weights), maxLossDiff(got.Losses, want.Losses); dw > 1e-15 || dl > 1e-15 {
						t.Fatalf("%s: weights deviate by %g, losses by %g", name, dw, dl)
					}
					more := int64(cfg.Steps) * extra * allReduceMessages(p)
					var gotWords, wantWords int64
					for r, w := range want.Stats {
						g := got.Stats[r]
						gotWords += g.WordsSent
						wantWords += w.WordsSent
						if g.Rank != w.Rank || (p&(p-1) == 0 && g.WordsSent != w.WordsSent) || g.Messages != w.Messages+more {
							t.Fatalf("%s: rank %d sent %d words in %d messages, want %d in %d",
								name, r, g.WordsSent, g.Messages, w.WordsSent, w.Messages+more)
						}
					}
					if gotWords != wantWords {
						t.Fatalf("%s: the ranks sent %d words, want %d", name, gotWords, wantWords)
					}
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

// TestModelOracle: RunFullIntegrated on a P × 1 grid with every layer
// Model is bit-identical to the former all-layer model engine. Where a
// layer does not split P ways, both engines must reject.
func TestModelOracle(t *testing.T) {
	nets := []*nn.Network{nn.MLP("m", 20, 16, 8, 4), nn.TinyConvNet(), divisibleDropoutNet(), lrnNet(), domainNet()}
	ran := 0
	for _, spec := range nets {
		ds := data.Synthetic(32, spec.Input, spec.Output().C, 17)
		for _, opt := range oracleOptimizers {
			cfg := Config{Spec: spec, Seed: 21, LR: 0.05, Steps: 3, BatchSize: 8, NewOptimizer: opt.make}
			for _, p := range []int{1, 2, 4} {
				want, wantErr := refRunModel(mpi.NewWorld(p, testMachine()), cfg, ds)
				got, gotErr := RunFullIntegrated(mpi.NewWorld(p, testMachine()), cfg, ds, grid.Grid{Pr: p, Pc: 1}, nil)
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

// oracleNets is every network the engine tests train, each once.
func oracleNets() []*nn.Network {
	return []*nn.Network{
		nn.MLP("m", 24, 16, 8, 4), nn.MLP("verify-mlp", 32, 16, 8, 8), nn.MLP("m", 20, 16, 8, 4),
		nn.MLP("m", 12, 8, 4), nn.MLP("m", 4, 2), nn.MLP("m", 10, 7, 4), nn.MLP("m", 16, 8, 4),
		nn.MLP("m", 64, 64, 64), nn.MLP("m", 8, 4),
		nn.TinyConvNet(), tinyConvDivNet(), divisibleDropoutNet(), lrnNet(), lrn6Net(),
		domainNet(), oneByOneDomainNet(), convOnlyNet(), evenKernelNet(),
	}
}

// TestAssignmentOracles: RunFullIntegrated under the assignment of each
// engine it replaced reproduces that engine's whole Result.
func TestAssignmentOracles(t *testing.T) {
	checkAssignmentOracles(t, oracleNets()...)
}

// checkAssignmentOracles runs RunFullIntegrated against the verbatim
// per-strategy engines it replaced, on nets: (P×1, nil) against RunModel
// and (P×1, every layer Domain) against RunDomain at P = 1, 2, 4, and
// (g, Domain convs and Model FC) against the conv RunFullIntegrated on
// every grid of 4 and 8 ranks. Each runs under every oracle optimizer at
// B = 8 and 12 where Pc divides B (the old engines' batch guard). Both
// runs must fail, or both succeed with DeepEqual Results. Under the race
// detector, whose target is the message choreography the optimizer does
// not change, each (B, engine, grid) case runs one optimizer in rotation,
// which keeps CI's -race -cpu 1,2,4 run of the package within its
// timeout.
func checkAssignmentOracles(t *testing.T, nets ...*nn.Network) {
	t.Helper()
	byOne := []grid.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 1}, {Pr: 4, Pc: 1}}
	all := append(grid.Factorizations(4), grid.Factorizations(8)...)
	refs := []struct {
		name   string
		run    func(*mpi.World, Config, *data.Dataset, grid.Grid) (Result, error)
		assign func(*nn.Network) costmodel.Assignment
		grids  []grid.Grid
	}{
		{"model", func(w *mpi.World, cfg Config, ds *data.Dataset, _ grid.Grid) (Result, error) {
			return refRunModel15D(w, cfg, ds)
		}, func(*nn.Network) costmodel.Assignment { return nil }, byOne},
		{"domain", func(w *mpi.World, cfg Config, ds *data.Dataset, _ grid.Grid) (Result, error) {
			return refRunDomain(w, cfg, ds)
		}, func(n *nn.Network) costmodel.Assignment { return costmodel.UniformAssignment(n, costmodel.Domain) }, byOne},
		{"integrated", refRunFullIntegrated, func(n *nn.Network) costmodel.Assignment {
			return costmodel.ConvAssignment(n, costmodel.Domain, costmodel.Model)
		}, all},
	}
	for _, spec := range nets {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ds := data.Synthetic(32, spec.Input, spec.Output().C, 17)
			trained, c := 0, 0
			for _, b := range []int{8, 12} {
				for _, ref := range refs {
					for _, g := range ref.grids {
						if b%g.Pc != 0 {
							continue
						}
						c++
						for i, opt := range oracleOptimizers {
							if raceDetector && c%len(oracleOptimizers) != i {
								continue
							}
							// Two steps: the second reads the optimizer state.
							cfg := Config{Spec: spec, Seed: 21, LR: 0.05, Steps: 2, BatchSize: b, NewOptimizer: opt.make}
							want, wantErr := ref.run(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g)
							got, gotErr := RunFullIntegrated(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g, ref.assign(spec))
							if sameRun(t, fmt.Sprintf("%s/B=%d/%s/%v", ref.name, b, opt.name, g), got, gotErr, want, wantErr) {
								trained++
							}
						}
					}
				}
			}
			if trained == 0 && len(spec.FCLayers()) > 0 {
				t.Fatal("no run trained")
			}
			t.Logf("%d runs trained", trained)
		})
	}
}
