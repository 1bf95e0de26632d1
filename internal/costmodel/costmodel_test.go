package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
)

func knl() machine.Machine { return machine.CoriKNL() }

// TestIntegratedReducesToPureBatch: Eq. 8 with Pr = 1 must equal Eq. 4
// exactly — the paper's consistency check "for L_M = L, L_D = 0 we get the
// integrated complexity as expected" specialized to the batch end.
func TestIntegratedReducesToPureBatch(t *testing.T) {
	net := nn.AlexNet()
	f := func(pRaw uint8, bRaw uint16) bool {
		p := 2 + int(pRaw)%510
		b := 1 + int(bRaw)%4096
		eq8 := FlatEnv(knl()).Integrated(net, b, grid.Grid{Pr: 1, Pc: p}).TotalSeconds()
		eq4 := FlatEnv(knl()).PureBatch(net, b, p).TotalSeconds()
		return math.Abs(eq8-eq4) < 1e-12*math.Max(1, eq4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntegratedReducesToPureModel: Eq. 8 with Pc = 1 must equal Eq. 3
// (the gradient all-reduce over a 1-process group vanishes).
func TestIntegratedReducesToPureModel(t *testing.T) {
	net := nn.AlexNet()
	f := func(pRaw uint8, bRaw uint16) bool {
		p := 2 + int(pRaw)%510
		b := 1 + int(bRaw)%4096
		eq8 := FlatEnv(knl()).Integrated(net, b, grid.Grid{Pr: p, Pc: 1}).TotalSeconds()
		eq3 := FlatEnv(knl()).PureModel(net, b, p).TotalSeconds()
		return math.Abs(eq8-eq3) < 1e-12*math.Max(1, eq3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFullIntegratedDefaultsToIntegrated: Eq. 9 with L_M = all layers is
// Eq. 8 (the paper's stated specialization).
func TestFullIntegratedDefaultsToIntegrated(t *testing.T) {
	net := nn.AlexNet()
	for _, g := range []grid.Grid{{Pr: 1, Pc: 64}, {Pr: 4, Pc: 16}, {Pr: 16, Pc: 32}, {Pr: 64, Pc: 1}} {
		a := FlatEnv(knl()).FullIntegrated(net, 512, g, nil).TotalSeconds()
		b := FlatEnv(knl()).Integrated(net, 512, g).TotalSeconds()
		if math.Abs(a-b) > 1e-15 {
			t.Fatalf("grid %v: FullIntegrated(nil) = %g, Integrated = %g", g, a, b)
		}
	}
}

// TestPureBatchBandwidthIndependentOfP: the paper notes that for P ≫ 1 the
// Eq. 4 bandwidth cost is independent of P and of B.
func TestPureBatchBandwidthIndependentOfP(t *testing.T) {
	net := nn.AlexNet()
	c512 := FlatEnv(knl()).PureBatch(net, 2048, 512)
	c4096 := FlatEnv(knl()).PureBatch(net, 123, 4096)
	var bw512, bw4096 float64
	for _, l := range c512.Layers {
		bw512 += l.GradReduce.Bandwidth
	}
	for _, l := range c4096.Layers {
		bw4096 += l.GradReduce.Bandwidth
	}
	if rel := math.Abs(bw512-bw4096) / bw512; rel > 0.002 {
		t.Fatalf("pure-batch bandwidth varies with P by %v", rel)
	}
}

// TestPureModelScalesWithB: Eq. 3's volume is proportional to the batch
// size, unlike Eq. 4.
func TestPureModelScalesWithB(t *testing.T) {
	net := nn.AlexNet()
	var bw1, bw2 float64
	for _, l := range FlatEnv(knl()).PureModel(net, 128, 16).Layers {
		bw1 += l.AllGather.Bandwidth + l.ActReduce.Bandwidth
	}
	for _, l := range FlatEnv(knl()).PureModel(net, 256, 16).Layers {
		bw2 += l.AllGather.Bandwidth + l.ActReduce.Bandwidth
	}
	if math.Abs(bw2-2*bw1) > 1e-12*bw2 {
		t.Fatalf("model-parallel bandwidth not linear in B: %g vs 2×%g", bw2, bw1)
	}
}

// TestEq5CrossoverAlexNetConv: the paper's worked example — for AlexNet's
// 3×3 convolutions on 13×13 activations with 384 input channels (conv4,
// conv5), model parallelism has lower communication volume for B ≤ ~12.
func TestEq5CrossoverAlexNetConv(t *testing.T) {
	net := nn.AlexNet()
	var conv4 *nn.Layer
	for i := range net.Layers {
		if net.Layers[i].Name == "conv4" {
			conv4 = &net.Layers[i]
		}
	}
	if conv4 == nil {
		t.Fatal("conv4 not found")
	}
	// 2·kh·kw·X_C/(3·Y_H·Y_W) = 2·9·384/(3·169) = 13.6…
	cross := ModelBatchCrossoverB(conv4)
	if cross < 12 || cross > 14 {
		t.Fatalf("conv4 crossover B = %d, paper says ≈12", cross)
	}
	if r := VolumeRatioBatchOverModel(conv4, cross); r <= 1 {
		t.Fatalf("at B = %d model should still win (ratio %g)", cross, r)
	}
	if r := VolumeRatioBatchOverModel(conv4, cross+2); r >= 1 {
		t.Fatalf("at B = %d batch should win (ratio %g)", cross+2, r)
	}
}

// TestCrossoverMonotonicity: Eq. 5's ratio decreases in B for every conv
// layer (batch parallelism eventually always wins).
func TestCrossoverMonotonicity(t *testing.T) {
	net := nn.AlexNet()
	for _, li := range net.ConvLayers() {
		l := &net.Layers[li]
		prev := math.Inf(1)
		for _, b := range []int{1, 2, 4, 8, 16, 64, 256, 2048} {
			r := VolumeRatioBatchOverModel(l, b)
			if r >= prev {
				t.Fatalf("%s: ratio not strictly decreasing in B", l.Name)
			}
			prev = r
		}
	}
}

// TestIntegratedBeatsPureAtScale reproduces the paper's headline analytic
// claim: at P = 512, B = 2048 on AlexNet, some Pr > 1 grid has strictly
// lower communication time than both pure batch (1×512) and pure model
// (512×1).
func TestIntegratedBeatsPureAtScale(t *testing.T) {
	net := nn.AlexNet()
	pure := FlatEnv(knl()).Integrated(net, 2048, grid.Grid{Pr: 1, Pc: 512}).TotalSeconds()
	model := FlatEnv(knl()).Integrated(net, 2048, grid.Grid{Pr: 512, Pc: 1}).TotalSeconds()
	best := math.Inf(1)
	var bestG grid.Grid
	for _, g := range grid.Factorizations(512) {
		if c := FlatEnv(knl()).Integrated(net, 2048, g).TotalSeconds(); c < best {
			best, bestG = c, g
		}
	}
	if bestG.Pr == 1 || bestG.Pc == 1 {
		t.Fatalf("best grid %v is pure; integrated should win (batch %g, model %g, best %g)",
			bestG, pure, model, best)
	}
	if best >= pure || best >= model {
		t.Fatalf("best integrated %g not better than pure batch %g / model %g", best, pure, model)
	}
}

// TestConvBatchOnlyImprovesUniformGrid encodes the Fig. 7-vs-Fig. 6
// comparison: forcing conv layers to pure batch lowers the best
// communication time versus using the same grid everywhere.
func TestConvBatchOnlyImprovesUniformGrid(t *testing.T) {
	net := nn.AlexNet()
	bestUniform, bestSplit := math.Inf(1), math.Inf(1)
	for _, g := range grid.Factorizations(512) {
		if c := FlatEnv(knl()).Integrated(net, 2048, g).TotalSeconds(); c < bestUniform {
			bestUniform = c
		}
		assign := ConvAssignment(net, BatchOnly, Model)
		if c := FlatEnv(knl()).FullIntegrated(net, 2048, g, assign).TotalSeconds(); c < bestSplit {
			bestSplit = c
		}
	}
	if bestSplit >= bestUniform {
		t.Fatalf("conv-batch-only (%g) should beat uniform grids (%g)", bestSplit, bestUniform)
	}
}

// domainCost is layer li's Domain cost with its gradient all-reduce
// priced afresh.
func domainCost(net *nn.Network, li, B int, pr *pricer) LayerCost {
	return domainLayerCost(net, li, B, pr, pr.allAllReduce(float64(net.Layers[li].Weights())))
}

// TestDomainBeatsModelOnEarlyLayers: for AlexNet's early conv layers the
// per-layer domain cost is lower than the per-layer model cost at large
// per-process batch (the Section 2.4 motivation for L_D).
func TestDomainBeatsModelOnEarlyLayers(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 4, Pc: 128}
	conv1 := net.ConvLayers()[0]
	pr := FlatEnv(knl()).pricerFor(g)
	mc := modelLayerCost(net, conv1, 512, pr, false).Total().Total()
	dc := domainCost(net, conv1, 512, pr).Total().Total()
	if dc >= mc {
		t.Fatalf("conv1: domain %g should beat model %g", dc, mc)
	}
}

// TestDomainFreeFor1x1Conv: Eq. 7 — 1×1 convolutions need no halo.
func TestDomainFreeFor1x1Conv(t *testing.T) {
	net := nn.OneByOneNet()
	pr := FlatEnv(knl()).pricerFor(grid.Grid{Pr: 4, Pc: 4})
	for _, li := range net.ConvLayers() {
		l := &net.Layers[li]
		lc := domainCost(net, li, 64, pr)
		if l.KH == 1 && l.KW == 1 && lc.Halo().Total() != 0 {
			t.Fatalf("%s: 1×1 conv should have zero halo, got %g", l.Name, lc.Halo().Total())
		}
		if l.KH == 3 && lc.Halo().Total() == 0 {
			t.Fatalf("%s: 3×3 conv should have non-zero halo", l.Name)
		}
	}
}

// TestDomainFCIsExpensive: the FC halo is the whole activation panel, so
// domain parallelism must lose to model parallelism on AlexNet FC layers.
func TestDomainFCIsExpensive(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 8, Pc: 64}
	fc6 := net.FCLayers()[0]
	pr := FlatEnv(knl()).pricerFor(g)
	mc := modelLayerCost(net, fc6, 2048, pr, false).Total().Total()
	dc := domainCost(net, fc6, 2048, pr).Total().Total()
	if dc <= mc {
		t.Fatalf("fc6: domain %g should be worse than model %g", dc, mc)
	}
}

// TestRedistributeAsymptoticallyFree: Eq. 6 — the batch→model
// redistribution all-gather costs no more than one third of the
// subsequent model-parallel layer communication (the paper: "three times
// the cost of the redistribution").
func TestRedistributeAsymptoticallyFree(t *testing.T) {
	net := nn.AlexNet()
	p, b := 64, 1024
	for k, li := range net.WeightedLayers() {
		redist := FlatEnv(knl()).Redistribute(net, li, b, p).Total()
		model := FlatEnv(knl()).PureModel(net, b, p)
		layerCost := model.Layers[k].Total().Total()
		if k == 0 {
			continue // first layer has no ∆X all-reduce
		}
		// The model-parallel step per layer ≈ all-gather(d_i) +
		// 2×all-reduce(d_{i-1}); redistribution is one all-gather(d_i).
		if redist > layerCost {
			t.Fatalf("layer %d: redistribution %g exceeds model step %g", li, redist, layerCost)
		}
	}
}

// TestBreakdownAccounting: forward + backward partition the total.
func TestBreakdownAccounting(t *testing.T) {
	net := nn.AlexNet()
	assign := ConvAssignment(net, Domain, Model)
	b := FlatEnv(knl()).FullIntegrated(net, 512, grid.Grid{Pr: 4, Pc: 128}, assign)
	sum := b.ForwardSeconds() + b.BackwardSeconds()
	if math.Abs(sum-b.TotalSeconds()) > 1e-15 {
		t.Fatalf("fwd %g + bwd %g ≠ total %g", b.ForwardSeconds(), b.BackwardSeconds(), b.TotalSeconds())
	}
	if b.GradReduceSeconds() <= 0 || b.GradReduceSeconds() > b.TotalSeconds() {
		t.Fatalf("grad-reduce share out of range: %g of %g", b.GradReduceSeconds(), b.TotalSeconds())
	}
}

// TestOverlapNeverWorse: overlapping can only help, and is bounded below
// by compute plus forward communication.
func TestOverlapNeverWorse(t *testing.T) {
	net := nn.AlexNet()
	f := func(prIdx, bIdx uint8) bool {
		grids := grid.Factorizations(256)
		g := grids[int(prIdx)%len(grids)]
		b := 256 << (int(bIdx) % 4)
		bd := FlatEnv(knl()).Integrated(net, b, g)
		comp := 0.01
		plain := IterationSeconds(bd, comp, false)
		over := IterationSeconds(bd, comp, true)
		return over <= plain && over >= comp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpochScaling(t *testing.T) {
	if EpochIterations(1200000, 2048) != 586 {
		t.Fatalf("EpochIterations = %d, want 586", EpochIterations(1200000, 2048))
	}
	if EpochSeconds(0.1, 1000, 100) != 1.0 {
		t.Fatal("EpochSeconds scaling wrong")
	}
}

func TestUniformAndConvAssignments(t *testing.T) {
	net := nn.AlexNet()
	ua := UniformAssignment(net, Domain)
	if len(ua) != len(net.WeightedLayers()) {
		t.Fatal("UniformAssignment wrong size")
	}
	ca := ConvAssignment(net, Domain, Model)
	for li, s := range ca {
		if net.Layers[li].Kind == nn.Conv && s != Domain {
			t.Fatalf("conv layer %d got %v", li, s)
		}
		if net.Layers[li].Kind == nn.FC && s != Model {
			t.Fatalf("fc layer %d got %v", li, s)
		}
	}
	if Model.String() != "model" || Domain.String() != "domain" || BatchOnly.String() != "batch" {
		t.Fatal("Strategy.String mismatch")
	}
}

// TestPureDomainCarriesFullBatch: Eq. 7's halo volumes scale with the
// full B (pure domain does not split the batch), and PureDomain agrees
// with FullIntegrated on a P×1 grid under an all-Domain assignment.
func TestPureDomainCarriesFullBatch(t *testing.T) {
	net := nn.AlexNet()
	p := 8
	d1 := FlatEnv(knl()).PureDomain(net, 256, p)
	d2 := FlatEnv(knl()).PureDomain(net, 512, p)
	var h1, h2 float64
	for i := range d1.Layers {
		h1 += d1.Layers[i].Halo().Bandwidth
		h2 += d2.Layers[i].Halo().Bandwidth
	}
	if math.Abs(h2-2*h1) > 1e-12*h2 {
		t.Fatalf("pure-domain halo bandwidth not linear in B: %g vs 2×%g", h2, h1)
	}
	via9 := FlatEnv(knl()).FullIntegrated(net, 256, grid.Grid{Pr: p, Pc: 1},
		UniformAssignment(net, Domain)).TotalSeconds()
	direct := FlatEnv(knl()).PureDomain(net, 256, p).TotalSeconds()
	if math.Abs(via9-direct) > 1e-15 {
		t.Fatalf("Eq. 9 at P×1 all-domain (%g) ≠ Eq. 7 (%g)", via9, direct)
	}
}

// TestPureDomainGradientReduceMatchesBatch: the third Eq. 7 term is the
// same weight all-reduce as Eq. 4.
func TestPureDomainGradientReduceMatchesBatch(t *testing.T) {
	net := nn.AlexNet()
	d := FlatEnv(knl()).PureDomain(net, 128, 16)
	b := FlatEnv(knl()).PureBatch(net, 128, 16)
	if math.Abs(d.GradReduceSeconds()-b.GradReduceSeconds()) > 1e-15 {
		t.Fatalf("Eq. 7 grad term %g ≠ Eq. 4 %g", d.GradReduceSeconds(), b.GradReduceSeconds())
	}
}
