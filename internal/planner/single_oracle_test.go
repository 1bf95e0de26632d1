package planner

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// referenceAssignment is the mode's resolved Eq. 9 assignment on grid g
// at batch B, chosen independently of the pricing loop's Cheapest pass:
// under Auto, every conv layer takes the cheapest of its Model, Domain
// (when g.Pr fits its input height) and BatchOnly (when g.P() ≤ B)
// costs, read off three whole-network FullIntegrated passes under
// uniform assignments — ties keep Model, then Domain — and every FC
// layer Model.
func referenceAssignment(env costmodel.Env, net *nn.Network, B int, g grid.Grid, mode Mode) costmodel.Assignment {
	switch mode {
	case Uniform:
		return costmodel.UniformAssignment(net, costmodel.Model)
	case ConvBatch:
		return costmodel.ConvAssignment(net, costmodel.BatchOnly, costmodel.Model)
	case ConvDomain:
		return costmodel.ConvAssignment(net, costmodel.Domain, costmodel.Model)
	}
	model := env.FullIntegrated(net, B, g, costmodel.UniformAssignment(net, costmodel.Model))
	domain := env.FullIntegrated(net, B, g, costmodel.UniformAssignment(net, costmodel.Domain))
	batch := env.FullIntegrated(net, B, g, costmodel.UniformAssignment(net, costmodel.BatchOnly))
	a := make(costmodel.Assignment)
	for k, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		a[li] = costmodel.Model
		if l.Kind != nn.Conv {
			continue
		}
		best := model.Layers[k].TotalSeconds()
		if c := domain.Layers[k].TotalSeconds(); g.Pr <= l.In.H && c < best {
			a[li], best = costmodel.Domain, c
		}
		if c := batch.Layers[k].TotalSeconds(); g.P() <= B && c < best {
			a[li] = costmodel.BatchOnly
		}
	}
	return a
}

// singleIterationRef is the reference single-iteration timeline scorer
// for an M = 1, S = 1 leaf: the assignment chosen by referenceAssignment
// and priced by Env.FullIntegrated, the footprint by costmodel.Memory,
// and the per-layer schedule over compute.Model.GridLayerTimes' split,
// with the residual overhead appended to the makespan. The planner
// prices the same leaf as the trivial pipeline (Env.PriceStages +
// Simulate, resolving Auto in that pass) and must reproduce this plan
// bit for bit.
func singleIterationRef(net *nn.Network, B int, g grid.Grid, pl grid.Placement, o Options) Plan {
	p := Plan{Grid: g, Batch: B, Placement: pl, Mode: o.Mode, MicroBatch: 1, Schedule: o.Schedule, Stages: 1}
	s := newSearch(net, B, g.P(), o, false)
	part := stage.Balanced(len(net.WeightedLayers()), 1)
	if p.Reason = s.structural(&leaf{B: B, S: 1, g: g, pl: pl, part: part, micro: 1}); p.Reason != "" {
		return p
	}
	env := costmodel.Env{Topo: o.topology(), Placement: pl}
	p.Assignment = referenceAssignment(env, net, B, g, o.Mode)
	bd := env.FullIntegrated(net, B, g, p.Assignment)
	p.MemoryWords = costmodel.Memory(net, B, g, p.Assignment).TotalWords()
	if o.MemoryLimitWords > 0 && p.MemoryWords > o.MemoryLimitWords {
		p.Reason = fmt.Sprintf("per-process memory %.3g words exceeds limit %.3g", p.MemoryWords, o.MemoryLimitWords)
		return p
	}
	p.Breakdown = bd
	p.CommSeconds = bd.TotalSeconds()
	times, overhead := o.Compute.GridLayerTimes(net, B, g)
	p.CompSeconds = overhead
	for _, lt := range times {
		p.CompSeconds += lt.Fwd + lt.Bwd
	}
	res, err := timeline.SimulatePipeline(costmodel.TimelineLayers(bd, times), o.TimelinePolicy, timeline.Single())
	if err != nil {
		p.Reason = fmt.Sprintf("timeline simulation failed: %v", err)
		return p
	}
	p.Timeline = res
	p.BubbleFraction = res.BubbleFraction
	p.IterSeconds = res.Makespan + overhead
	p.Feasible = true
	if o.AddRedistribution {
		r := env.RedistributionSeconds(net, B, g, p.Assignment, part)
		p.CommSeconds += r
		p.IterSeconds += r
	}
	p.ExposedCommSeconds = math.Max(0, p.IterSeconds-p.CompSeconds)
	return p
}

// oracleNet is a random conv(+pool) stack with an FC tail.
func oracleNet(rng *rand.Rand) *nn.Network {
	n := &nn.Network{Name: "random", Input: nn.Shape{H: 16 + 8*rng.Intn(6), W: 16 + 8*rng.Intn(6), C: 1 + rng.Intn(4)}}
	for i, convs := 0, 1+rng.Intn(4); i < convs; i++ {
		k := []int{1, 3, 5}[rng.Intn(3)]
		n.Layers = append(n.Layers, nn.Layer{Kind: nn.Conv, Name: fmt.Sprintf("conv%d", i),
			KH: k, KW: k, Stride: 1, Pad: k / 2, OutC: 4 << rng.Intn(5)})
		if rng.Intn(2) == 0 {
			n.Layers = append(n.Layers, nn.Layer{Kind: nn.Pool, Name: fmt.Sprintf("pool%d", i), KH: 2, KW: 2, Stride: 2})
		}
	}
	for i, fcs := 0, 1+rng.Intn(3); i < fcs; i++ {
		n.Layers = append(n.Layers, nn.Layer{Kind: nn.FC, Name: fmt.Sprintf("fc%d", i), OutN: 16 << rng.Intn(7)})
	}
	if err := n.Infer(); err != nil {
		return nil
	}
	return n
}

// checkSingleOracle prices one M = 1, S = 1 leaf through EvaluateAt
// (bounds off) and compares it with singleIterationRef: the iteration,
// communication, compute and exposed seconds and the footprint by bit
// pattern, the breakdown and the spanned timeline by DeepEqual, and the
// reason exactly. It returns the plan.
func checkSingleOracle(t *testing.T, name string, net *nn.Network, B int, g grid.Grid, pl grid.Placement, o Options) Plan {
	t.Helper()
	o.UseTimeline, o.DisableBounds, o.Workers = true, true, 1
	got := EvaluateAt(net, B, g, pl, o)
	want := singleIterationRef(net, B, g, pl, o)
	bits := func(p Plan) [5]uint64 {
		return [5]uint64{math.Float64bits(p.IterSeconds), math.Float64bits(p.CommSeconds),
			math.Float64bits(p.CompSeconds), math.Float64bits(p.ExposedCommSeconds), math.Float64bits(p.MemoryWords)}
	}
	switch {
	case got.Reason != want.Reason || got.Feasible != want.Feasible:
		t.Fatalf("%s: feasible=%v reason %q, reference feasible=%v reason %q",
			name, got.Feasible, got.Reason, want.Feasible, want.Reason)
	case bits(got) != bits(want):
		t.Fatalf("%s: iter/comm/comp/exposed/memory %v\n  reference %v",
			name, [5]float64{got.IterSeconds, got.CommSeconds, got.CompSeconds, got.ExposedCommSeconds, got.MemoryWords},
			[5]float64{want.IterSeconds, want.CommSeconds, want.CompSeconds, want.ExposedCommSeconds, want.MemoryWords})
	case !reflect.DeepEqual(got.Assignment, want.Assignment):
		t.Fatalf("%s: assignment %v, reference %v", name, got.Assignment, want.Assignment)
	case !reflect.DeepEqual(got.Breakdown, want.Breakdown):
		t.Fatalf("%s: breakdown differs from the reference", name)
	case !reflect.DeepEqual(got.Timeline, want.Timeline):
		t.Fatalf("%s: timeline differs from the reference", name)
	case got.BubbleFraction != want.BubbleFraction:
		t.Fatalf("%s: bubble fraction %g, reference %g", name, got.BubbleFraction, want.BubbleFraction)
	}
	return got
}

// TestSingleIterationOracle: every M = 1, S = 1 timeline leaf, priced as
// the trivial pipeline, equals the single-iteration reference bit for
// bit — across random nets, flat, two- and three-level topologies, both
// placements, all three policies and all four modes, with and without
// Eq. 6 redistribution, and under memory limits that prune some leaves.
func TestSingleIterationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	topos := []machine.Topology{{}, machine.CoriKNLNodes(4), rackTaper()}
	policies := []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull}
	modes := []Mode{Uniform, ConvBatch, ConvDomain, Auto}
	var feasible, pruned int
	for trial := 0; trial < 120; trial++ {
		net := oracleNet(rng)
		if net == nil {
			continue
		}
		g := grid.Grid{Pr: 1 << rng.Intn(6), Pc: 1 << rng.Intn(6)}
		B := g.Pc * (1 + rng.Intn(8))
		pl := grid.Placements()[rng.Intn(2)]
		o := DefaultOptions()
		o.Topology = topos[trial%len(topos)]
		o.TimelinePolicy = policies[rng.Intn(len(policies))]
		o.Mode = modes[rng.Intn(len(modes))]
		o.Schedule = timeline.Shape(rng.Intn(2))
		o.AddRedistribution = rng.Intn(4) == 0
		if trial%3 == 0 {
			// A limit around the leaf's own footprint prunes about half
			// of these leaves.
			env := costmodel.Env{Topo: o.topology(), Placement: pl}
			a := referenceAssignment(env, net, B, g, o.Mode)
			o.MemoryLimitWords = costmodel.Memory(net, B, g, a).TotalWords() * (0.5 + rng.Float64())
		}
		name := fmt.Sprintf("trial %d (%v B=%d %v %v %v %v limit=%.3g)",
			trial, o.topology().Name, B, g, pl, o.Mode, o.TimelinePolicy, o.MemoryLimitWords)
		switch p := checkSingleOracle(t, name, net, B, g, pl, o); {
		case p.Feasible:
			feasible++
		case strings.HasPrefix(p.Reason, "per-process memory"):
			pruned++
		}
	}
	if feasible < 40 || pruned == 0 {
		t.Fatalf("weak sample: %d feasible leaves, %d memory-pruned", feasible, pruned)
	}
}

// TestSingleIterationOracleHighResidual: AlexNet at B=8192 on a 32×1
// grid has a 15.4 ms residual overhead, more than twice FixedIter, where
// FixedIter + (residual − FixedIter) is not the residual in floating
// point (costmodel.TestPipelineIterationSingleHighResidual pins the
// overhead itself). The leaf must still match the reference bit for bit
// under every policy.
func TestSingleIterationOracleHighResidual(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 32, Pc: 1}
	o := DefaultOptions()
	for _, pol := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
		for _, mode := range []Mode{Uniform, Auto} {
			o.TimelinePolicy, o.Mode = pol, mode
			if !checkSingleOracle(t, fmt.Sprintf("%v %v", pol, mode), net, 8192, g, grid.RowMajor, o).Feasible {
				t.Fatalf("%v %v: AlexNet 32×1 at B=8192 infeasible", pol, mode)
			}
		}
	}
}
