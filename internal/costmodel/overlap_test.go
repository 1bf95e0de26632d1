package costmodel

import (
	"math"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// closedFormOverlap is the historical one-line Fig. 8 idealization that
// IterationSeconds(…, true) must keep reproducing now that it delegates to
// the timeline simulator.
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
			bd := FlatEnv(m).Integrated(net, 512, g)
			for compName, comp := range comps {
				got := IterationSeconds(bd, comp, true)
				want := closedFormOverlap(bd, comp)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s %v %s: delegated %g, closed form %g (Δ %g)",
						netName, g, compName, got, want, got-want)
				}
				plain := IterationSeconds(bd, comp, false)
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

// TestAggregateTimelineShape: the bridge layer splits compute by
// BackpropFraction and carries the full fwd/bwd communication split.
func TestAggregateTimelineShape(t *testing.T) {
	net := nn.AlexNet()
	bd := FlatEnv(machine.CoriKNL()).Integrated(net, 512, grid.Grid{Pr: 8, Pc: 64})
	layers := AggregateTimeline(bd, 0.09)
	if len(layers) != 1 {
		t.Fatalf("aggregate should be one layer, got %d", len(layers))
	}
	l := layers[0]
	if math.Abs(l.FwdComp+l.BwdComp-0.09) > 1e-12 {
		t.Fatalf("compute split %g + %g ≠ 0.09", l.FwdComp, l.BwdComp)
	}
	if math.Abs(l.BwdComp-compute.BackpropFraction*0.09) > 1e-12 {
		t.Fatalf("backprop share = %g, want %g", l.BwdComp, compute.BackpropFraction*0.09)
	}
	if math.Abs(l.AllGather-bd.ForwardSeconds()) > 1e-15 || math.Abs(l.ActReduce-bd.BackwardSeconds()) > 1e-15 {
		t.Fatal("aggregate comm split does not match the breakdown")
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

// TestIterationSecondsValidation: negative or NaN inputs fail loudly, as
// the internal/tensor panics convention requires.
func TestIterationSecondsValidation(t *testing.T) {
	net := nn.AlexNet()
	bd := FlatEnv(machine.CoriKNL()).Integrated(net, 512, grid.Grid{Pr: 4, Pc: 16})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative compute serialized", func() { IterationSeconds(bd, -1, false) })
	mustPanic("negative compute overlapped", func() { IterationSeconds(bd, -1, true) })
	mustPanic("NaN compute", func() { IterationSeconds(bd, math.NaN(), true) })

	bad := &Breakdown{Layers: []LayerCost{{
		Name:      "bad",
		AllGather: collective.Cost{Bandwidth: -1},
	}}}
	mustPanic("negative forward comm", func() { IterationSeconds(bad, 1, true) })
	bad2 := &Breakdown{Layers: []LayerCost{{
		Name:       "bad2",
		GradReduce: collective.Cost{Latency: math.NaN()},
	}}}
	mustPanic("NaN backward comm", func() { IterationSeconds(bad2, 1, false) })
}
