package costmodel

import (
	"fmt"
	"math"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/timeline"
)

// validSeconds is b.TotalSeconds() from the same pass that validates
// every cost term: a negative or NaN term fails loudly — it would
// silently corrupt every scaling figure built on top, so the contract
// matches the shape-validation panics of internal/tensor. It adds the
// same terms in the same order, so the two return the same float.
func (b *Breakdown) validSeconds() float64 {
	var t float64
	for i := range b.Layers {
		l := &b.Layers[i]
		t += validTerm(l, "all-gather", &l.AllGather) + validTerm(l, "∆X all-reduce", &l.ActReduce) +
			validTerm(l, "∆W all-reduce", &l.GradReduce) + validTerm(l, "forward halo", &l.FwdHalo) +
			validTerm(l, "backward halo", &l.BwdHalo)
	}
	return t
}

// validTerm returns the seconds of the layer's cost term c, panicking
// when they are negative or NaN (the one comparison !(cost >= 0)
// catches both). The check inlines; formatting the panic stays out of
// line.
func validTerm(l *LayerCost, name string, c *collective.Cost) float64 {
	cost := c.Total()
	if !(cost >= 0) {
		invalidTerm(l, name, cost)
	}
	return cost
}

//go:noinline
func invalidTerm(l *LayerCost, name string, cost float64) {
	panic(fmt.Sprintf("costmodel: layer %q has invalid %s cost %g", l.Name, name, cost))
}

// IterationTotals combines a per-iteration communication breakdown with a
// per-process computation time and returns the communication total,
// b.TotalSeconds(), from the pass that validates the breakdown, together
// with the iteration time. Inputs must be non-negative; negative or NaN
// times panic.
//
// With overlap=false, communication and computation serialize (the
// baseline of Figs. 6, 7, 9, 10): the iteration is comm + compSeconds, the
// closed-form legacy path, identical to timeline.PolicyNone.
//
// With overlap=true it prices the Fig. 8 idealization — backprop
// communication (the ∆X and ∆W all-reduces plus the backward halo, the
// paper's "two-thirds of the communication") hides behind backprop
// computation (2 of the 3 GEMMs) while forward communication stays
// exposed — by delegating to the event-driven timeline simulator on the
// aggregate single-layer inputs under timeline.PolicyBackprop. The
// delegation reproduces the historical closed form
// comp + fwdComm + max(0, bwdComm − BackpropFraction·comp) exactly.
func IterationTotals(b *Breakdown, compSeconds float64, overlap bool) (comm, iter float64) {
	if compSeconds < 0 || math.IsNaN(compSeconds) {
		panic(fmt.Sprintf("costmodel: invalid computation time %g", compSeconds))
	}
	comm = b.validSeconds()
	if !overlap {
		return comm, comm + compSeconds
	}
	res, err := timeline.Score(AggregateTimeline(b, compSeconds), timeline.PolicyBackprop, timeline.Single())
	if err != nil {
		// The aggregate graph is a four-event chain; it cannot cycle.
		panic(fmt.Sprintf("costmodel: aggregate timeline failed: %v", err))
	}
	return comm, res.Makespan
}

// AggregateTimeline collapses a Breakdown plus an aggregate compute time
// into a single timeline layer: forward communication becomes one
// all-gather, backward communication one ∆X all-reduce, and the compute
// splits by BackpropFraction. Simulating it under timeline.PolicyBackprop
// yields the Fig. 8 closed form; it is the bridge between the legacy
// aggregate API and the per-layer simulator.
func AggregateTimeline(b *Breakdown, compSeconds float64) []timeline.Layer {
	bwdComp := compute.BackpropFraction * compSeconds
	return []timeline.Layer{{
		Name:      "aggregate",
		FwdComp:   compSeconds - bwdComp,
		BwdComp:   bwdComp,
		AllGather: b.ForwardSeconds(),
		ActReduce: b.BackwardSeconds(),
	}}
}

// TimelineLayers pairs the per-layer communication costs of a Breakdown
// with per-layer compute times (compute.Model.GridLayerTimes) to build the
// full-resolution simulator input. The two lists pair by position: both
// must cover the same weighted layers in the same (forward) order, as
// every pricer emits them over Network.WeightedLayers(). A length or
// layer-index mismatch panics (the internal/tensor fail-loudly
// convention). Layer names come from the breakdown.
//
// A breakdown priced against a hierarchical topology (len(LevelNames) >
// 0) carries per-level cost attributions (collective.Cost.Levels);
// TimelineLayers forwards them as timeline.LayerLevels, sliced from the
// breakdown's own costs, so every link level's collectives schedule on
// their own lane. Flat breakdowns produce flat layers (single Network
// lane).
func TimelineLayers(b *Breakdown, times []compute.LayerTime) []timeline.Layer {
	if len(b.Layers) != len(times) {
		panic(fmt.Sprintf("costmodel: TimelineLayers got %d layer costs and %d layer times", len(b.Layers), len(times)))
	}
	depth := len(b.LevelNames)
	out := make([]timeline.Layer, len(times))
	for i, t := range times {
		lc := &b.Layers[i]
		if lc.Index != t.Index {
			panic(fmt.Sprintf("costmodel: TimelineLayers position %d pairs layer %d's costs with layer %d's times", i, lc.Index, t.Index))
		}
		out[i] = timeline.Layer{
			Name:       lc.Name,
			FwdComp:    t.Fwd,
			BwdComp:    t.Bwd,
			AllGather:  lc.AllGather.Total(),
			FwdHalo:    lc.FwdHalo.Total(),
			ActReduce:  lc.ActReduce.Total(),
			GradReduce: lc.GradReduce.Total(),
			BwdHalo:    lc.BwdHalo.Total(),
		}
		if depth > 0 {
			out[i].Levels = &timeline.LayerLevels{
				Names:      b.LevelNames,
				AllGather:  lc.AllGather.Levels[:depth],
				FwdHalo:    lc.FwdHalo.Levels[:depth],
				ActReduce:  lc.ActReduce.Levels[:depth],
				GradReduce: lc.GradReduce.Levels[:depth],
				BwdHalo:    lc.BwdHalo.Levels[:depth],
			}
		}
	}
	return out
}

// EpochIterations returns ⌈N/B⌉, the SGD steps per epoch. A batch size
// b ≤ 0 panics (the internal/tensor fail-loudly convention): the old
// integer division would have divided by zero or, for negative b,
// silently returned a nonsense step count that corrupts every epoch
// figure downstream. Negative n panics for the same reason.
func EpochIterations(n, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("costmodel: EpochIterations needs batch size ≥ 1, got B=%d", b))
	}
	if n < 0 {
		panic(fmt.Sprintf("costmodel: EpochIterations needs dataset size ≥ 0, got N=%d", n))
	}
	return (n + b - 1) / b
}

// EpochSeconds scales a per-iteration time to one epoch over n samples.
// Like EpochIterations it panics on b ≤ 0 or n < 0.
func EpochSeconds(perIter float64, n, b int) float64 {
	return perIter * float64(EpochIterations(n, b))
}
