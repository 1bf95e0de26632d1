package parallel

import (
	"math"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// The engines compute the same synchronous SGD iteration as the serial
// reference; only floating-point summation order differs (partial sums
// reduced by collectives). After a handful of steps the weight trajectories
// must agree to tight tolerance.
const trajTol = 1e-9

func testMachine() machine.Machine {
	return machine.Machine{Name: "test", Alpha: 1e-6, Beta: 1e-9, PeakFlops: 1e12}
}

// domainNet is a conv+fc network satisfying the slab constraints (heights
// divisible by up to 4, halo-compatible convs, aligned pools).
func domainNet() *nn.Network {
	n := &nn.Network{
		Name:  "DomainNet",
		Input: nn.Shape{H: 16, W: 10, C: 3},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 6},
			{Kind: nn.Conv, Name: "conv2", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.Pool, Name: "pool1", KH: 2, KW: 2, Stride: 2},
			{Kind: nn.FC, Name: "fc1", OutN: 24},
			{Kind: nn.FC, Name: "fc2", OutN: 8},
		},
	}
	if err := n.Infer(); err != nil {
		panic(err)
	}
	return n
}

// oneByOneDomainNet exercises the zero-halo 1×1 path.
func oneByOneDomainNet() *nn.Network {
	n := &nn.Network{
		Name:  "OneByOneDomain",
		Input: nn.Shape{H: 8, W: 6, C: 4},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "reduce", KH: 1, KW: 1, Stride: 1, OutC: 8},
			{Kind: nn.Conv, Name: "conv", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.Conv, Name: "expand", KH: 1, KW: 1, Stride: 1, OutC: 4},
			{Kind: nn.FC, Name: "fc", OutN: 5},
		},
	}
	if err := n.Infer(); err != nil {
		panic(err)
	}
	return n
}

// tinyConvDivNet is TinyConvNet with a pool between its convs and every
// OutC/OutN divisible by 2 and 4 (TinyConvNet's 10 classes are not).
func tinyConvDivNet() *nn.Network {
	return mustNet(&nn.Network{
		Name:  "TinyConvDiv",
		Input: nn.Shape{H: 12, W: 12, C: 3},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.Pool, Name: "pool1", KH: 2, KW: 2, Stride: 2},
			{Kind: nn.Conv, Name: "conv2", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.FC, Name: "fc1", OutN: 16},
			{Kind: nn.FC, Name: "fc2", OutN: 8},
		},
	})
}

// lrn6Net puts LRN between a 6-filter conv and a 6-way classifier.
func lrn6Net() *nn.Network {
	return mustNet(&nn.Network{
		Name:  "LRNDiv",
		Input: nn.Shape{H: 8, W: 8, C: 3},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 6},
			{Kind: nn.LRN, Name: "lrn1"},
			{Kind: nn.FC, Name: "fc1", OutN: 6},
		},
	})
}

// convOnlyNet has no FC layer.
func convOnlyNet() *nn.Network {
	return mustNet(&nn.Network{
		Name:   "convOnly",
		Input:  nn.Shape{H: 4, W: 4, C: 2},
		Layers: []nn.Layer{{Kind: nn.Conv, Name: "c", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 4}},
	})
}

// evenKernelNet's 2×2 conv is not halo-decomposable.
func evenKernelNet() *nn.Network {
	return mustNet(&nn.Network{
		Name:  "bad",
		Input: nn.Shape{H: 8, W: 8, C: 1},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "c", KH: 2, KW: 2, Stride: 1, Pad: 0, OutC: 2},
			{Kind: nn.FC, Name: "f", OutN: 2},
		},
	})
}

func mustNet(n *nn.Network) *nn.Network {
	if err := n.Infer(); err != nil {
		panic(err)
	}
	return n
}

func maxWeightDiff(a, b []*tensor.Matrix) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := a[i].MaxAbsDiff(b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func maxLossDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func serialOracle(t *testing.T, cfg Config, ds *data.Dataset) Result {
	t.Helper()
	res, err := RunSerial(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- Batch parallelism (Fig. 2): the 1 × P grid ----------------------------

func TestBatchMatchesSerial(t *testing.T) {
	spec := nn.TinyConvNet()
	ds := data.Synthetic(64, spec.Input, 10, 7)
	cfg := Config{Spec: spec, Seed: 3, LR: 0.05, Steps: 5, BatchSize: 16}
	want := serialOracle(t, cfg, ds)
	for _, p := range []int{2, 4, 8, 16} {
		w := mpi.NewWorld(p, testMachine())
		got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 1, Pc: p}, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("P=%d: batch-parallel weights deviate by %g", p, d)
		}
		if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
			t.Fatalf("P=%d: batch-parallel losses deviate by %g", p, d)
		}
	}
}

func TestBatchUnevenShards(t *testing.T) {
	spec := nn.MLP("m", 12, 8, 4)
	ds := data.Synthetic(40, spec.Input, 4, 11)
	cfg := Config{Spec: spec, Seed: 5, LR: 0.1, Steps: 4, BatchSize: 10}
	want := serialOracle(t, cfg, ds)
	w := mpi.NewWorld(3, testMachine()) // 10 = 4+3+3: uneven
	got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 1, Pc: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("uneven shards deviate by %g", d)
	}
}

func TestBatchRejectsPGreaterThanB(t *testing.T) {
	spec := nn.MLP("m", 4, 2)
	ds := data.Synthetic(8, spec.Input, 2, 1)
	w := mpi.NewWorld(8, testMachine())
	cfg := Config{Spec: spec, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}
	if _, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 1, Pc: 8}, nil); err == nil {
		t.Fatal("P > B should be rejected")
	}
}

// --- Model parallelism (Fig. 1) -------------------------------------------

func TestModelMatchesSerialMLP(t *testing.T) {
	spec := nn.MLP("m", 20, 16, 8, 4)
	ds := data.Synthetic(64, spec.Input, 4, 13)
	cfg := Config{Spec: spec, Seed: 9, LR: 0.08, Steps: 5, BatchSize: 12}
	want := serialOracle(t, cfg, ds)
	for _, p := range []int{2, 4} {
		w := mpi.NewWorld(p, testMachine())
		got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: p, Pc: 1}, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("P=%d: model-parallel weights deviate by %g", p, d)
		}
		if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
			t.Fatalf("P=%d: model-parallel losses deviate by %g", p, d)
		}
	}
}

func TestModelMatchesSerialConvNet(t *testing.T) {
	spec := tinyConvDivNet()
	ds := data.Synthetic(32, spec.Input, 8, 17)
	cfg := Config{Spec: spec, Seed: 21, LR: 0.05, Steps: 4, BatchSize: 8}
	want := serialOracle(t, cfg, ds)
	for _, p := range []int{2, 4} {
		w := mpi.NewWorld(p, testMachine())
		got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: p, Pc: 1}, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("P=%d: conv model-parallel weights deviate by %g", p, d)
		}
	}
}

func TestModelMatchesSerialWithLRN(t *testing.T) {
	spec := lrn6Net()
	ds := data.Synthetic(24, spec.Input, 6, 19)
	cfg := Config{Spec: spec, Seed: 23, LR: 0.05, Steps: 3, BatchSize: 6}
	want := serialOracle(t, cfg, ds)
	w := mpi.NewWorld(2, testMachine())
	got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 2, Pc: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("LRN model-parallel weights deviate by %g", d)
	}
}

func TestModelRejectsIndivisible(t *testing.T) {
	spec := nn.MLP("m", 10, 7, 4) // 7 not divisible by 2
	ds := data.Synthetic(8, spec.Input, 4, 1)
	w := mpi.NewWorld(2, testMachine())
	if _, err := RunFullIntegrated(w, Config{Spec: spec, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}, ds, grid.Grid{Pr: 2, Pc: 1}, nil); err == nil {
		t.Fatal("indivisible OutN should be rejected")
	}
}

// TestModelRequiresFCSuffix: the logits come from an FC layer, so a
// network with no FC layer is rejected rather than trained without them.
func TestModelRequiresFCSuffix(t *testing.T) {
	spec := convOnlyNet()
	ds := data.Synthetic(8, spec.Input, 4, 1)
	if _, err := RunFullIntegrated(mpi.NewWorld(2, testMachine()), Config{Spec: spec, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}, ds, grid.Grid{Pr: 2, Pc: 1}, nil); err == nil {
		t.Fatal("a network without an FC layer should be rejected")
	}
}

// --- Domain parallelism (Fig. 3) ------------------------------------------

func TestDomainMatchesSerial(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(32, spec.Input, 8, 29)
	cfg := Config{Spec: spec, Seed: 31, LR: 0.05, Steps: 4, BatchSize: 8}
	want := serialOracle(t, cfg, ds)
	for _, p := range []int{2, 4} {
		w := mpi.NewWorld(p, testMachine())
		got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: p, Pc: 1}, costmodel.UniformAssignment(spec, costmodel.Domain))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("P=%d: domain-parallel weights deviate by %g", p, d)
		}
		if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
			t.Fatalf("P=%d: domain-parallel losses deviate by %g", p, d)
		}
	}
}

func TestDomainOneByOneConvNoHaloTraffic(t *testing.T) {
	spec := oneByOneDomainNet()
	ds := data.Synthetic(16, spec.Input, 5, 37)
	cfg := Config{Spec: spec, Seed: 41, LR: 0.05, Steps: 3, BatchSize: 4}
	want := serialOracle(t, cfg, ds)
	w := mpi.NewWorld(2, testMachine())
	got, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 2, Pc: 1}, costmodel.UniformAssignment(spec, costmodel.Domain))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("1×1 domain weights deviate by %g", d)
	}
}

func TestDomainRejectsBadGeometry(t *testing.T) {
	bad := evenKernelNet()
	ds := data.Synthetic(8, bad.Input, 2, 1)
	w := mpi.NewWorld(2, testMachine())
	if _, err := RunFullIntegrated(w, Config{Spec: bad, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 4}, ds, grid.Grid{Pr: 2, Pc: 1}, costmodel.UniformAssignment(bad, costmodel.Domain)); err == nil {
		t.Fatal("even kernel should be rejected")
	}
}

// --- Integrated 1.5D (Fig. 5) ---------------------------------------------

func TestIntegrated15DMatchesSerialAllGrids(t *testing.T) {
	spec := nn.MLP("m", 24, 16, 8, 4)
	ds := data.Synthetic(96, spec.Input, 4, 43)
	cfg := Config{Spec: spec, Seed: 47, LR: 0.07, Steps: 5, BatchSize: 24}
	want := serialOracle(t, cfg, ds)
	for _, g := range []grid.Grid{{Pr: 1, Pc: 6}, {Pr: 2, Pc: 3}, {Pr: 2, Pc: 2}, {Pr: 4, Pc: 2}, {Pr: 4, Pc: 1}, {Pr: 1, Pc: 1}} {
		w := mpi.NewWorld(g.P(), testMachine())
		got, err := RunFullIntegrated(w, cfg, ds, g, nil)
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("grid %v: 1.5D weights deviate by %g", g, d)
		}
		if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
			t.Fatalf("grid %v: 1.5D losses deviate by %g", g, d)
		}
	}
}

func TestIntegrated15DPureEndsMatchOtherEngines(t *testing.T) {
	// 1×P ≡ the batch engine and P×1 ≡ the all-layer model engine, both
	// kept as oracles — the spectrum claim.
	spec := nn.MLP("m", 16, 8, 4)
	ds := data.Synthetic(48, spec.Input, 4, 53)
	cfg := Config{Spec: spec, Seed: 59, LR: 0.06, Steps: 4, BatchSize: 12}
	wb := mpi.NewWorld(4, testMachine())
	batch, err := refRunBatch(wb, cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	wi := mpi.NewWorld(4, testMachine())
	ibatch, err := RunFullIntegrated(wi, cfg, ds, grid.Grid{Pr: 1, Pc: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(batch.Weights, ibatch.Weights); d > trajTol {
		t.Fatalf("1×4 grid vs batch engine deviate by %g", d)
	}
	wm := mpi.NewWorld(4, testMachine())
	model, err := refRunModel(wm, cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	wi2 := mpi.NewWorld(4, testMachine())
	imodel, err := RunFullIntegrated(wi2, cfg, ds, grid.Grid{Pr: 4, Pc: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(model.Weights, imodel.Weights); d > trajTol {
		t.Fatalf("4×1 grid vs model engine deviate by %g", d)
	}
}

func TestIntegrated15DValidation(t *testing.T) {
	spec := nn.MLP("m", 8, 4)
	ds := data.Synthetic(8, spec.Input, 4, 1)
	cfg := Config{Spec: spec, Seed: 1, LR: 0.1, Steps: 1, BatchSize: 5}
	if _, err := RunFullIntegrated(mpi.NewWorld(8, testMachine()), cfg, ds, grid.Grid{Pr: 1, Pc: 8}, nil); err == nil {
		t.Fatal("Pc=8 > B=5 should be rejected")
	}
	w := mpi.NewWorld(4, testMachine())
	if _, err := RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 2, Pc: 3}, nil); err == nil {
		t.Fatal("grid/world mismatch should be rejected")
	}
}

// --- Fully integrated model+batch+domain (Eq. 9) --------------------------

func TestFullIntegratedMatchesSerialAllGrids(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(48, spec.Input, 8, 61)
	cfg := Config{Spec: spec, Seed: 67, LR: 0.05, Steps: 4, BatchSize: 12}
	want := serialOracle(t, cfg, ds)
	for _, g := range []grid.Grid{{Pr: 2, Pc: 2}, {Pr: 2, Pc: 3}, {Pr: 4, Pc: 2}, {Pr: 2, Pc: 1}, {Pr: 1, Pc: 4}} {
		w := mpi.NewWorld(g.P(), testMachine())
		got, err := RunFullIntegrated(w, cfg, ds, g, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model))
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
			t.Fatalf("grid %v: fully integrated weights deviate by %g", g, d)
		}
		if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
			t.Fatalf("grid %v: fully integrated losses deviate by %g", g, d)
		}
	}
}

// TestFullIntegratedBeyondBatch: more processes than samples per batch —
// the regime pure batch cannot reach (Fig. 10), P = 8 > B = 4.
func TestFullIntegratedBeyondBatch(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(16, spec.Input, 8, 71)
	cfg := Config{Spec: spec, Seed: 73, LR: 0.05, Steps: 3, BatchSize: 4}
	want := serialOracle(t, cfg, ds)
	g := grid.Grid{Pr: 2, Pc: 4} // P = 8 > B = 4 would be infeasible for batch
	w := mpi.NewWorld(g.P(), testMachine())
	got, err := RunFullIntegrated(w, cfg, ds, g, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
		t.Fatalf("beyond-batch weights deviate by %g", d)
	}
	// And pure batch parallelism, the 1×8 grid, indeed cannot run it.
	wb := mpi.NewWorld(8, testMachine())
	if _, err := RunFullIntegrated(wb, cfg, ds, grid.Grid{Pr: 1, Pc: 8}, nil); err == nil {
		t.Fatal("the 1×8 grid should reject P=8 > B=4")
	}
}

// --- Cross-cutting ---------------------------------------------------------

// TestTrainingConvergesUnderEveryEngine: beyond gradient-exactness, each
// engine actually learns (loss at the end below the start).
func TestTrainingConvergesUnderEveryEngine(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(64, spec.Input, 8, 79)
	cfg := Config{Spec: spec, Seed: 83, LR: 0.08, Steps: 12, BatchSize: 16}
	check := func(name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
		if last >= first {
			t.Fatalf("%s: loss did not decrease (%g → %g)", name, first, last)
		}
	}
	serial, err := RunSerial(cfg, ds)
	check("serial", serial, err)
	got, err := RunFullIntegrated(mpi.NewWorld(4, testMachine()), cfg, ds, grid.Grid{Pr: 1, Pc: 4}, nil)
	check("batch", got, err)
	got, err = RunFullIntegrated(mpi.NewWorld(2, testMachine()), cfg, ds, grid.Grid{Pr: 2, Pc: 1}, costmodel.UniformAssignment(spec, costmodel.Domain))
	check("domain", got, err)
	got, err = RunFullIntegrated(mpi.NewWorld(4, testMachine()), cfg, ds, grid.Grid{Pr: 2, Pc: 2}, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model))
	check("full-integrated", got, err)
}

// TestCommVolumeOrdering: at equal P, the measured words-on-the-wire obey
// the paper's qualitative ordering on an FC network at small batch:
// model parallel moves more data than batch parallel when B·d > |W| and
// less when B·d < |W| (Eq. 5's logic, measured rather than predicted).
func TestCommVolumeOrdering(t *testing.T) {
	// |W| = 64·64 + 64·64 = 8192 per layer pair; B·d = 4·64 = 256 ≪ |W|:
	// model parallelism should move fewer words.
	spec := nn.MLP("m", 64, 64, 64)
	ds := data.Synthetic(16, spec.Input, 8, 89)
	cfg := Config{Spec: spec, Seed: 97, LR: 0.05, Steps: 2, BatchSize: 4}
	wb := mpi.NewWorld(4, testMachine())
	batch, err := RunFullIntegrated(wb, cfg, ds, grid.Grid{Pr: 1, Pc: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wm := mpi.NewWorld(4, testMachine())
	model, err := RunFullIntegrated(wm, cfg, ds, grid.Grid{Pr: 4, Pc: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wordsBatch, wordsModel int64
	for _, s := range batch.Stats {
		wordsBatch += s.WordsSent
	}
	for _, s := range model.Stats {
		wordsModel += s.WordsSent
	}
	if wordsModel >= wordsBatch {
		t.Fatalf("at B=4 on a 64-wide MLP model parallel (%d words) should beat batch (%d words)",
			wordsModel, wordsBatch)
	}
}

// TestStatsPopulated: engines report mpi accounting.
func TestStatsPopulated(t *testing.T) {
	spec := nn.MLP("m", 8, 4)
	ds := data.Synthetic(16, spec.Input, 4, 101)
	cfg := Config{Spec: spec, Seed: 103, LR: 0.05, Steps: 2, BatchSize: 8}
	res, err := RunFullIntegrated(mpi.NewWorld(2, testMachine()), cfg, ds, grid.Grid{Pr: 1, Pc: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("want 2 stats records, got %d", len(res.Stats))
	}
	for _, s := range res.Stats {
		if s.WordsSent == 0 || s.CommTime <= 0 {
			t.Fatalf("rank %d has empty accounting: %+v", s.Rank, s)
		}
	}
}

// --- Per-layer assignments -------------------------------------------------

// assignOf gives the weighted layers of spec the strategies in order.
func assignOf(spec *nn.Network, ss ...costmodel.Strategy) costmodel.Assignment {
	a := costmodel.Assignment{}
	for k, li := range spec.WeightedLayers() {
		a[li] = ss[k]
	}
	return a
}

// TestStrategyChangesMatchSerial: strategy changes inside the conv stack
// relayout the activations both ways — slab→full into a Model conv after
// a Domain one, full→slab into a Domain conv after a Model one — and the
// run still follows serial SGD.
func TestStrategyChangesMatchSerial(t *testing.T) {
	const m, d = costmodel.Model, costmodel.Domain
	cases := []struct {
		spec   *nn.Network
		assign costmodel.Assignment
	}{
		{domainNet(), assignOf(domainNet(), d, m, d, d)},
		{oneByOneDomainNet(), assignOf(oneByOneDomainNet(), m, d, m, d)},
	}
	for _, c := range cases {
		ds := data.Synthetic(32, c.spec.Input, c.spec.Output().C, 23)
		cfg := Config{Spec: c.spec, Seed: 29, LR: 0.05, Steps: 4, BatchSize: 8}
		want := serialOracle(t, cfg, ds)
		for _, g := range []grid.Grid{{Pr: 2, Pc: 2}, {Pr: 4, Pc: 1}} {
			got, err := RunFullIntegrated(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g, c.assign)
			if err != nil {
				t.Fatalf("%s %v: %v", c.spec.Name, g, err)
			}
			if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
				t.Fatalf("%s %v: weights deviate by %g", c.spec.Name, g, d)
			}
			if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
				t.Fatalf("%s %v: losses deviate by %g", c.spec.Name, g, d)
			}
		}
	}
}

// TestUnevenColumnShardsMatchSerial: Pc need not divide B — B = 9 splits
// 5+4 over two columns and 3+2+2+2 over four, and the reweighted
// gradients and losses still follow serial SGD.
func TestUnevenColumnShardsMatchSerial(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(36, spec.Input, spec.Output().C, 31)
	cfg := Config{Spec: spec, Seed: 37, LR: 0.05, Steps: 4, BatchSize: 9}
	want := serialOracle(t, cfg, ds)
	for _, assign := range []costmodel.Assignment{nil, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model)} {
		for _, g := range []grid.Grid{{Pr: 2, Pc: 2}, {Pr: 1, Pc: 4}} {
			got, err := RunFullIntegrated(mpi.NewWorld(g.P(), testMachine()), cfg, ds, g, assign)
			if err != nil {
				t.Fatalf("%v %v: %v", assign, g, err)
			}
			if d := maxWeightDiff(got.Weights, want.Weights); d > trajTol {
				t.Fatalf("%v %v: weights deviate by %g", assign, g, d)
			}
			if d := maxLossDiff(got.Losses, want.Losses); d > trajTol {
				t.Fatalf("%v %v: losses deviate by %g", assign, g, d)
			}
		}
	}
}

// TestRejectsUnexecutableStrategies: BatchOnly and Cheapest layers are
// planner strategies, not walk steps.
func TestRejectsUnexecutableStrategies(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(16, spec.Input, spec.Output().C, 41)
	cfg := Config{Spec: spec, Seed: 43, LR: 0.05, Steps: 1, BatchSize: 4}
	for _, s := range []costmodel.Strategy{costmodel.BatchOnly, costmodel.Cheapest} {
		assign := costmodel.ConvAssignment(spec, s, costmodel.Model)
		if _, err := RunFullIntegrated(mpi.NewWorld(4, testMachine()), cfg, ds, grid.Grid{Pr: 2, Pc: 2}, assign); err == nil {
			t.Fatalf("%v convs should be rejected", s)
		}
	}
}
