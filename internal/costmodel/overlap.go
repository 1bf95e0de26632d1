package costmodel

import (
	"fmt"
	"math"
	"sort"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/timeline"
)

// validateIteration fails loudly on unphysical inputs — negative or NaN
// times would silently corrupt every scaling figure built on top, so the
// contract matches the shape-validation panics of internal/tensor.
func validateIteration(b *Breakdown, compSeconds float64) {
	if compSeconds < 0 || math.IsNaN(compSeconds) {
		panic(fmt.Sprintf("costmodel: invalid computation time %g", compSeconds))
	}
	for _, l := range b.Layers {
		for _, c := range []struct {
			name string
			cost float64
		}{
			{"all-gather", l.AllGather.Total()},
			{"∆X all-reduce", l.ActReduce.Total()},
			{"∆W all-reduce", l.GradReduce.Total()},
			{"forward halo", l.FwdHalo.Total()},
			{"backward halo", l.BwdHalo.Total()},
		} {
			if c.cost < 0 || math.IsNaN(c.cost) {
				panic(fmt.Sprintf("costmodel: layer %q has invalid %s cost %g", l.Name, c.name, c.cost))
			}
		}
	}
}

// IterationSeconds combines a per-iteration communication breakdown with a
// per-process computation time. Inputs must be non-negative; negative or
// NaN times panic.
//
// With overlap=false, communication and computation serialize (the
// baseline of Figs. 6, 7, 9, 10) — the closed-form legacy path, identical
// to timeline.PolicyNone.
//
// With overlap=true it prices the Fig. 8 idealization — backprop
// communication (the ∆X and ∆W all-reduces plus the backward halo, the
// paper's "two-thirds of the communication") hides behind backprop
// computation (2 of the 3 GEMMs) while forward communication stays
// exposed — by delegating to the event-driven timeline simulator on the
// aggregate single-layer inputs under timeline.PolicyBackprop. The
// delegation reproduces the historical closed form
// comp + fwdComm + max(0, bwdComm − BackpropFraction·comp) exactly.
func IterationSeconds(b *Breakdown, compSeconds float64, overlap bool) float64 {
	validateIteration(b, compSeconds)
	if !overlap {
		return b.TotalSeconds() + compSeconds
	}
	res, err := timeline.SimulatePipeline(AggregateTimeline(b, compSeconds), timeline.PolicyBackprop, timeline.Single())
	if err != nil {
		// The aggregate graph is a four-event chain; it cannot cycle.
		panic(fmt.Sprintf("costmodel: aggregate timeline failed: %v", err))
	}
	return res.Makespan
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
// full-resolution simulator input. Layers present in only one of the two
// inputs keep zero durations on the missing side; matching is by layer
// index into Network.Layers, and the output is sorted by that index —
// the simulator treats slice order as forward order, so encounter order
// must not leak through when the two inputs cover different index sets.
//
// A breakdown priced against a hierarchical topology carries per-level
// cost attributions (collective.Cost.Levels) and level names
// (Breakdown.LevelNames); TimelineLayers forwards them as
// timeline.LayerLevels so every link level's collectives schedule on
// their own lane. Flat breakdowns produce flat layers (single Network
// lane) — the legacy behavior, bit-identical.
func TimelineLayers(b *Breakdown, times []compute.LayerTime) []timeline.Layer {
	depth := len(b.LevelNames)
	leveled := depth > 0
	for _, lc := range b.Layers {
		for _, c := range []collective.Cost{lc.AllGather, lc.FwdHalo, lc.ActReduce, lc.GradReduce, lc.BwdHalo} {
			if !c.Leveled() {
				continue
			}
			leveled = true
			for i := depth; i < len(c.Levels); i++ {
				if c.Levels[i] != 0 {
					depth = i + 1
				}
			}
		}
	}
	merged := make(map[int]*timeline.Layer, len(b.Layers))
	at := func(index int, name string) *timeline.Layer {
		if l, ok := merged[index]; ok {
			return l
		}
		// Levels is always allocated while merging (so the set closure
		// has a target) and dropped from the output when the breakdown
		// is flat.
		l := &timeline.Layer{Name: name, Levels: &timeline.LayerLevels{Names: b.LevelNames}}
		merged[index] = l
		return l
	}
	set := func(flat *float64, lane *[]float64, c collective.Cost) {
		*flat = c.Total()
		if !leveled {
			return
		}
		lv := make([]float64, depth)
		if c.Leveled() {
			for i := range lv {
				lv[i] = c.Level(i)
			}
		} else {
			// A flat cost inside a leveled breakdown can only be zero —
			// anything else would have been tagged by the topology
			// pricer — so attributing it to the innermost lane keeps the
			// split/flat consistency invariant trivially.
			lv[0] = c.Total()
		}
		*lane = lv
	}
	for _, lc := range b.Layers {
		l := at(lc.Index, lc.Name)
		set(&l.AllGather, &l.Levels.AllGather, lc.AllGather)
		set(&l.FwdHalo, &l.Levels.FwdHalo, lc.FwdHalo)
		set(&l.ActReduce, &l.Levels.ActReduce, lc.ActReduce)
		set(&l.GradReduce, &l.Levels.GradReduce, lc.GradReduce)
		set(&l.BwdHalo, &l.Levels.BwdHalo, lc.BwdHalo)
	}
	for _, t := range times {
		l := at(t.Index, t.Name)
		l.FwdComp = t.Fwd
		l.BwdComp = t.Bwd
	}
	indices := make([]int, 0, len(merged))
	for i := range merged {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	out := make([]timeline.Layer, 0, len(indices))
	for _, i := range indices {
		l := *merged[i]
		if !leveled {
			l.Levels = nil // flat breakdown: single Network lane, legacy behavior
		}
		out = append(out, l)
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
