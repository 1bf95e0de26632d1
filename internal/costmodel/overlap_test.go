package costmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// simulatedOverlap is the Fig. 8 iteration time as the event-driven
// timeline simulator computes it: the breakdown collapsed into one layer
// (forward communication as its all-gather, backward communication as its
// ∆X all-reduce, compute split by BackpropFraction) and scheduled under
// timeline.PolicyBackprop. IterationTotals(…, true) must match it bit for
// bit.
func simulatedOverlap(t *testing.T, b *Breakdown, compSeconds float64) float64 {
	t.Helper()
	bwdComp := compute.BackpropFraction * compSeconds
	res, err := timeline.Score([]timeline.Layer{{
		Name:      "aggregate",
		FwdComp:   compSeconds - bwdComp,
		BwdComp:   bwdComp,
		AllGather: b.ForwardSeconds(),
		ActReduce: b.BackwardSeconds(),
	}}, timeline.PolicyBackprop, timeline.Single())
	if err != nil {
		t.Fatalf("aggregate timeline: %v", err)
	}
	return res.Makespan
}

// closedFormOverlap is the historical one-line Fig. 8 idealization that
// IterationTotals(…, true) keeps reproducing.
func closedFormOverlap(b *Breakdown, compSeconds float64) float64 {
	bwdComm := b.BackwardSeconds()
	fwdComm := b.TotalSeconds() - bwdComm
	exposed := bwdComm - compute.BackpropFraction*compSeconds
	if exposed < 0 {
		exposed = 0
	}
	return compSeconds + fwdComm + exposed
}

// TestOverlapDelegationMatchesClosedForm covers the edge regimes the
// ISSUE names: zero compute, comm-dominated, compute-dominated, and a
// single-layer network, across several grids.
func TestOverlapDelegationMatchesClosedForm(t *testing.T) {
	m := machine.CoriKNL()
	nets := map[string]*nn.Network{
		"alexnet":      nn.AlexNet(),
		"single-layer": singleFCNet(t),
	}
	comps := map[string]float64{
		"zero compute":      0,
		"comm-dominated":    1e-6,
		"compute-dominated": 10,
		"balanced":          0.05,
	}
	for netName, net := range nets {
		for _, g := range []grid.Grid{{Pr: 1, Pc: 256}, {Pr: 16, Pc: 16}, {Pr: 256, Pc: 1}} {
			bd := FlatEnv(m).FullIntegrated(net, 512, g, nil)
			for compName, comp := range comps {
				_, got := IterationTotals(bd, comp, true)
				want := closedFormOverlap(bd, comp)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s %v %s: delegated %g, closed form %g (Δ %g)",
						netName, g, compName, got, want, got-want)
				}
				_, plain := IterationTotals(bd, comp, false)
				if got > plain+1e-12 {
					t.Fatalf("%s %v %s: overlap %g worse than serialized %g", netName, g, compName, got, plain)
				}
			}
		}
	}
}

func singleFCNet(t *testing.T) *nn.Network {
	t.Helper()
	net := &nn.Network{
		Name:  "one-fc",
		Input: nn.Shape{C: 1, H: 1, W: 256},
		Layers: []nn.Layer{
			{Name: "fc1", Kind: nn.FC, OutN: 512},
		},
	}
	if err := net.Infer(); err != nil {
		t.Fatalf("single-layer net: %v", err)
	}
	return net
}

// TestAggregateTimelineShape: the Fig. 8 aggregate splits compute by
// BackpropFraction and communication into the breakdown's forward and
// backward parts: forward communication is always exposed, backward
// communication hides behind the backprop share of compute and shows only
// past it.
func TestAggregateTimelineShape(t *testing.T) {
	net := nn.AlexNet()
	bd := FlatEnv(machine.CoriKNL()).FullIntegrated(net, 512, grid.Grid{Pr: 8, Pc: 64}, nil)
	fwd, bwd := bd.ForwardSeconds(), bd.BackwardSeconds()
	for _, c := range []struct {
		name       string
		comp, want float64
	}{
		{"hidden", 2 * bwd / compute.BackpropFraction, 2*bwd/compute.BackpropFraction + fwd},
		{"exposed", bwd / 2, bwd/2*(1-compute.BackpropFraction) + fwd + bwd},
	} {
		if _, iter := IterationTotals(bd, c.comp, true); math.Abs(iter-c.want) > 1e-12*c.want {
			t.Fatalf("%s backward communication: iteration %g, want %g", c.name, iter, c.want)
		}
	}
}

// TestTimelineLayersPairing: per-layer comm and compute land on the same
// slots, and the asymmetric fwd/bwd halo volumes (input vs output panels)
// survive into the simulator input instead of being averaged.
func TestTimelineLayersPairing(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 4, Pc: 64}
	m := machine.CoriKNL()
	assign := ConvAssignment(net, Domain, Model)
	bd := FlatEnv(m).FullIntegrated(net, 512, g, assign)
	times, _ := compute.KNLCaffe().GridLayerTimes(net, 512, g)
	layers := TimelineLayers(bd, times)
	if len(layers) != len(net.WeightedLayers()) {
		t.Fatalf("got %d timeline layers, want %d", len(layers), len(net.WeightedLayers()))
	}
	var comm, comp float64
	haloAsymmetrySeen := false
	for i, l := range layers {
		comm += l.CommSeconds()
		comp += l.CompSeconds()
		lc := bd.Layers[i]
		if l.FwdHalo != lc.FwdHalo.Total() || l.BwdHalo != lc.BwdHalo.Total() {
			t.Fatalf("layer %s: halo split not carried through (%g/%g vs %g/%g)",
				l.Name, l.FwdHalo, l.BwdHalo, lc.FwdHalo.Total(), lc.BwdHalo.Total())
		}
		if l.FwdHalo != l.BwdHalo && l.FwdHalo > 0 {
			haloAsymmetrySeen = true
		}
	}
	// Domain-parallel convs move different input/output panel volumes, so
	// the asymmetric split must survive into the simulator input.
	if !haloAsymmetrySeen {
		t.Fatal("expected at least one layer with asymmetric fwd/bwd halo")
	}
	if math.Abs(comm-bd.TotalSeconds()) > 1e-12 {
		t.Fatalf("comm conservation: %g vs %g", comm, bd.TotalSeconds())
	}
	var want float64
	for _, lt := range times {
		want += lt.Fwd + lt.Bwd
	}
	if math.Abs(comp-want) > 1e-12 {
		t.Fatalf("compute conservation: %g vs %g", comp, want)
	}
	// The per-layer simulation under every policy is bounded by the
	// serialized total and below by the compute chain.
	serial := comm + comp
	for _, pol := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
		res, err := timeline.SimulatePipeline(layers, pol, timeline.Single())
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Makespan > serial+1e-9 || res.Makespan < comp-1e-9 {
			t.Fatalf("%v: makespan %g outside [%g, %g]", pol, res.Makespan, comp, serial)
		}
	}
}

// TestTimelineLayersMismatchedIndexSets: the two inputs pair by
// position, so lists of different lengths, or a position whose layer
// indices disagree, fail loudly rather than simulating a wrong graph.
func TestTimelineLayersMismatchedIndexSets(t *testing.T) {
	b := &Breakdown{Layers: []LayerCost{
		{Index: 2, Name: "l2", AllGather: collective.Cost{Bandwidth: 1}},
		{Index: 5, Name: "l5", AllGather: collective.Cost{Bandwidth: 1}},
	}}
	for name, times := range map[string][]compute.LayerTime{
		"length": {{Index: 2, Fwd: 1, Bwd: 2}, {Index: 3, Fwd: 1, Bwd: 2}, {Index: 5, Fwd: 1, Bwd: 2}},
		"index":  {{Index: 2, Fwd: 1, Bwd: 2}, {Index: 3, Fwd: 1, Bwd: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch: TimelineLayers did not panic", name)
				}
			}()
			TimelineLayers(b, times)
		}()
	}
	layers := TimelineLayers(b, []compute.LayerTime{{Index: 2, Fwd: 1, Bwd: 2}, {Index: 5, Fwd: 1, Bwd: 2}})
	if len(layers) != 2 || layers[0].Name != "l2" || layers[1].Name != "l5" {
		t.Fatalf("matched lists: got %+v, want l2, l5 in order", layers)
	}
}

// TestIterationSecondsValidation: negative or NaN inputs to IterationTotals
// fail loudly, as the internal/tensor panics convention requires.
func TestIterationSecondsValidation(t *testing.T) {
	net := nn.AlexNet()
	bd := FlatEnv(machine.CoriKNL()).FullIntegrated(net, 512, grid.Grid{Pr: 4, Pc: 16}, nil)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative compute serialized", func() { IterationTotals(bd, -1, false) })
	mustPanic("negative compute overlapped", func() { IterationTotals(bd, -1, true) })
	mustPanic("NaN compute", func() { IterationTotals(bd, math.NaN(), true) })

	bad := &Breakdown{Layers: []LayerCost{{
		Name:      "bad",
		AllGather: collective.Cost{Bandwidth: -1},
	}}}
	mustPanic("negative forward comm", func() { IterationTotals(bad, 1, true) })
	bad2 := &Breakdown{Layers: []LayerCost{{
		Name:       "bad2",
		GradReduce: collective.Cost{Latency: math.NaN()},
	}}}
	mustPanic("NaN backward comm", func() { IterationTotals(bad2, 1, false) })
}

// TestIterationTotalsOnePass checks that the one validating pass sums a
// breakdown exactly as TotalSeconds does — the same float, on flat and
// leveled breakdowns of a repeated-block network — and that a negative or
// NaN term in any of the five positions still panics, naming the term.
func TestIterationTotalsOnePass(t *testing.T) {
	net := nn.ResNet50Proxy()
	for _, e := range []Env{FlatEnv(machine.CoriKNL()), {Topo: machine.CoriKNLNodes(16)}} {
		for _, g := range []grid.Grid{{Pr: 1, Pc: 64}, {Pr: 4, Pc: 16}, {Pr: 64, Pc: 1}} {
			bd := e.FullIntegrated(net, 512, g, ConvAssignment(net, Cheapest, Model))
			for _, overlap := range []bool{false, true} {
				comm, iter := IterationTotals(bd, 0.25, overlap)
				if comm != bd.TotalSeconds() {
					t.Fatalf("%v overlap=%v: comm %v, want TotalSeconds %v", g, overlap, comm, bd.TotalSeconds())
				}
				if !overlap && iter != comm+0.25 {
					t.Fatalf("%v: serialized iteration %v, want comm + comp = %v", g, iter, comm+0.25)
				}
				if want := simulatedOverlap(t, bd, 0.25); overlap && math.Float64bits(iter) != math.Float64bits(want) {
					t.Fatalf("%v: overlapped iteration %v, want the simulated Fig. 8 schedule's %v", g, iter, want)
				}
			}
		}
	}
	// Seeded random aggregates, with zero compute, zero forward and zero
	// backward communication among them, pin the closed form's term order
	// to the simulator's.
	rng := rand.New(rand.NewSource(8))
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return math.Pow(10, -7+8*rng.Float64())
	}
	for trial := 0; trial < 20000; trial++ {
		comp := draw()
		bd := &Breakdown{Layers: []LayerCost{{
			AllGather: collective.Cost{Latency: draw(), Bandwidth: draw()},
			ActReduce: collective.Cost{Latency: draw(), Bandwidth: draw()},
			BwdHalo:   collective.Cost{Bandwidth: draw()},
		}}}
		if _, iter := IterationTotals(bd, comp, true); math.Float64bits(iter) != math.Float64bits(simulatedOverlap(t, bd, comp)) {
			t.Fatalf("trial %d (comp %v, fwd %v, bwd %v): closed form %v, simulator %v",
				trial, comp, bd.ForwardSeconds(), bd.BackwardSeconds(), iter, simulatedOverlap(t, bd, comp))
		}
	}
	terms := map[string]func(*LayerCost) *collective.Cost{
		"all-gather":    func(l *LayerCost) *collective.Cost { return &l.AllGather },
		"∆X all-reduce": func(l *LayerCost) *collective.Cost { return &l.ActReduce },
		"∆W all-reduce": func(l *LayerCost) *collective.Cost { return &l.GradReduce },
		"forward halo":  func(l *LayerCost) *collective.Cost { return &l.FwdHalo },
		"backward halo": func(l *LayerCost) *collective.Cost { return &l.BwdHalo },
	}
	for name, term := range terms {
		for _, bad := range []float64{-1, math.NaN()} {
			b := &Breakdown{Layers: []LayerCost{{Name: "ok"}, {Name: "bad"}}}
			term(&b.Layers[1]).Bandwidth = bad
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, `layer "bad" has invalid `+name) {
						t.Fatalf("%s = %v: panic %q, want the layer and term named", name, bad, msg)
					}
				}()
				IterationTotals(b, 1, false)
			}()
		}
	}
}
