package costmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// The degenerate partition (S = 1) must reproduce the whole-network
// pipeline (pipelineReference) bit-for-bit — same breakdown, same
// schedule result, same overhead and flush, float for float — across
// random nets, grids, policies, schedule shapes, and micro-batch counts,
// on flat and hierarchical machines. This is the contract that lets the
// planner route every pipelined candidate through the stage path without
// perturbing single-stage plans.
func TestStageIterationSingleMatchesPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cm := compute.KNLCaffe()
	for trial := 0; trial < 30; trial++ {
		net := randomNetwork(rng)
		if net == nil {
			continue
		}
		env := FlatEnv(knl())
		if trial%3 == 0 {
			env = Env{Topo: machine.CoriKNLNodes(4), Placement: grid.ColMajor}
		}
		g := grid.Grid{Pr: 1 << rng.Intn(4), Pc: 1 << rng.Intn(4)}
		M := []int{1, 2, 4}[rng.Intn(3)]
		B := g.Pc * M * (1 + rng.Intn(4))
		shape := []timeline.Shape{timeline.GPipe, timeline.OneFOneB}[rng.Intn(2)]
		assign := UniformAssignment(net, Model)
		part := stage.Balanced(len(net.WeightedLayers()), 1)
		for _, pol := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
			sched := timeline.Schedule{Shape: shape, MicroBatches: M, Stages: 1}
			pc, err := pipelineReference(env, net, B, g, assign, cm, pol, sched)
			if err != nil {
				t.Fatalf("trial %d: pipeline: %v", trial, err)
			}
			sc, err := env.StageIteration(net, B, part, []grid.Grid{g}, assign, cm, pol, sched)
			if err != nil {
				t.Fatalf("trial %d: stage: %v", trial, err)
			}
			if sc.Result.Makespan != pc.Result.Makespan {
				t.Fatalf("trial %d policy %v M=%d: S=1 makespan %g != pipeline %g",
					trial, pol, M, sc.Result.Makespan, pc.Result.Makespan)
			}
			if !reflect.DeepEqual(sc.Result.Spans, pc.Result.Spans) {
				t.Fatalf("trial %d policy %v: S=1 spans differ from pipeline", trial, pol)
			}
			if sc.Overhead != pc.Overhead || sc.FlushSeconds != pc.FlushSeconds {
				t.Fatalf("trial %d: S=1 overhead/flush %g/%g != pipeline %g/%g",
					trial, sc.Overhead, sc.FlushSeconds, pc.Overhead, pc.FlushSeconds)
			}
			if !reflect.DeepEqual(sc.Breakdown, pc.Breakdown) {
				t.Fatalf("trial %d: S=1 breakdown differs from pipeline:\n%+v\nvs\n%+v",
					trial, sc.Breakdown, pc.Breakdown)
			}
			if sc.IterSeconds() != pc.IterSeconds() {
				t.Fatalf("trial %d: S=1 IterSeconds %g != pipeline %g", trial, sc.IterSeconds(), pc.IterSeconds())
			}
			if len(sc.Stages) != 1 || sc.Stages[0].BoundaryWords != 0 || sc.Stages[0].BoundarySeconds != 0 {
				t.Fatalf("trial %d: S=1 stage table %+v should have one boundary-free stage", trial, sc.Stages)
			}
		}
	}
}

// Two stages on a flat machine: the per-stage table must account for the
// whole network — layers partitioned contiguously, per-stage comm summing
// to the breakdown total, params summing to the network total — and the
// boundary handoff must price micro × d_in words point-to-point in each
// direction.
func TestStageIterationTwoStageAccounting(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	env := FlatEnv(machine.CoriKNL())
	widx := net.WeightedLayers()
	part := stage.Balanced(len(widx), 2)
	grids := []grid.Grid{{Pr: 4, Pc: 4}, {Pr: 2, Pc: 8}}
	const B, M = 256, 4
	sched := timeline.Schedule{Shape: timeline.GPipe, MicroBatches: M}
	sc, err := env.StageIteration(net, B, part, grids, UniformAssignment(net, Model), cm,
		timeline.PolicyBackprop, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(sc.Stages))
	}
	s0, s1 := sc.Stages[0], sc.Stages[1]
	if s0.FirstLayer != widx[0] || s1.LastLayer != widx[len(widx)-1] || s0.Layers+s1.Layers != len(widx) {
		t.Fatalf("stage table does not cover the network: %+v / %+v", s0, s1)
	}
	if s0.RankOffset != 0 || s1.RankOffset != grids[0].P() {
		t.Fatalf("rank offsets %d/%d, want 0/%d", s0.RankOffset, s1.RankOffset, grids[0].P())
	}
	if got, want := s0.ParamWords+s1.ParamWords, float64(net.TotalWeights()); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("per-stage params sum to %g, want %g", got, want)
	}
	var comm float64
	for _, lc := range sc.Breakdown.Layers {
		comm += lc.TotalSeconds()
	}
	if got := s0.CommSeconds + s1.CommSeconds; math.Abs(got-comm) > 1e-12*comm {
		t.Fatalf("per-stage comm sums to %g, breakdown total %g", got, comm)
	}
	// Boundary: stage 1's first layer pulls micro × d_in words across the
	// cut forward, and the same volume back as ∆X.
	li := widx[part.Starts[1]]
	words := float64(B/M) * float64(net.Layers[li].InSize())
	if s1.BoundaryWords != words {
		t.Fatalf("boundary words %g, want micro·d_in = %g", s1.BoundaryWords, words)
	}
	want := 2 * collective.PointToPoint(words, machine.CoriKNL()).Total()
	if math.Abs(s1.BoundarySeconds-want) > 1e-15 {
		t.Fatalf("boundary seconds %g, want 2·PointToPoint = %g", s1.BoundarySeconds, want)
	}
	if s0.BoundaryWords != 0 || s0.BoundarySeconds != 0 {
		t.Fatalf("stage 0 has no incoming boundary, got %+v", s0)
	}
	if got := sc.Stages[0].Grid.String() + "|" + sc.Stages[1].Grid.String(); got != "4x4|2x8" {
		t.Fatalf("stage grids %s, want 4x4|2x8", got)
	}
	// The handoff appears in the simulated schedule: some span on a stage-1
	// network lane is a forward transfer.
	found := false
	for _, sp := range sc.Result.Spans {
		if sp.Kind == timeline.FwdXfer {
			found = true
			if sp.Resource.PipelineStage() != 1 {
				t.Fatalf("forward handoff on stage %d lane, want receiving stage 1", sp.Resource.PipelineStage())
			}
		}
	}
	if !found {
		t.Fatal("no FwdXfer span in the simulated schedule")
	}
}

// The boundary level is decided by where the cut between adjacent rank
// blocks sits in the hierarchy: two 2×2 stages packed into one 8-rank
// node hand off at the node level, while the same grids at 4 ranks per
// node straddle a node boundary and pay the cluster link.
func TestStageBoundaryLevelAttribution(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	widx := net.WeightedLayers()
	part := stage.Balanced(len(widx), 2)
	grids := []grid.Grid{{Pr: 2, Pc: 2}, {Pr: 2, Pc: 2}}
	sched := timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 2}
	price := func(ranksPerNode int) StageCost {
		env := Env{Topo: machine.CoriKNLNodes(ranksPerNode), Placement: grid.ColMajor}
		sc, err := env.StageIteration(net, 64, part, grids, nil, cm, timeline.PolicyFull, sched)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Stages[1]
	}
	inside := price(8) // both stages in one node: cut at rank 3|4 stays inside
	if inside.BoundaryLevel != 0 || inside.BoundaryLevelName != "node" {
		t.Fatalf("intra-node cut attributed to level %d (%q), want node",
			inside.BoundaryLevel, inside.BoundaryLevelName)
	}
	across := price(4) // stage blocks are exactly the nodes: cut crosses
	if across.BoundaryLevel != 1 || across.BoundaryLevelName != "cluster" {
		t.Fatalf("inter-node cut attributed to level %d (%q), want cluster",
			across.BoundaryLevel, across.BoundaryLevelName)
	}
	if across.BoundarySeconds <= inside.BoundarySeconds {
		t.Fatalf("crossing the node boundary (%g s) must cost more than staying inside (%g s)",
			across.BoundarySeconds, inside.BoundarySeconds)
	}
}

func TestStageIterationValidation(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	env := FlatEnv(machine.CoriKNL())
	widx := net.WeightedLayers()
	sched := timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 2}
	g := grid.Grid{Pr: 2, Pc: 2}
	if _, err := env.StageIteration(net, 64, stage.Balanced(len(widx), 2), []grid.Grid{g}, nil, cm,
		timeline.PolicyNone, sched); err == nil {
		t.Fatal("grid count != stage count should fail")
	}
	if _, err := env.StageIteration(net, 64, stage.Balanced(len(widx)+1, 2), []grid.Grid{g, g}, nil, cm,
		timeline.PolicyNone, sched); err == nil {
		t.Fatal("partition over the wrong layer count should fail")
	}
	if _, err := env.StageIteration(net, 3, stage.Balanced(len(widx), 2), []grid.Grid{g, g}, nil, cm,
		timeline.PolicyNone, sched); err == nil {
		t.Fatal("micro-batch count not dividing B should fail")
	}
}

// MemoryStages: the single-stage estimate is the Memory footprint at
// micro-batch size with the whole gpipe stash in flight, exactly, and splitting stages splits the weight footprint while the
// 1F1B stash gradient keeps earlier stages' activation stash at least as
// large as later ones'.
func TestMemoryStages(t *testing.T) {
	net := nn.AlexNet()
	widx := net.WeightedLayers()
	g := grid.Grid{Pr: 4, Pc: 4}
	sched := timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 4, Stages: 1}
	one := MemoryStages(net, 256, stage.Balanced(len(widx), 1), []grid.Grid{g}, nil, sched)
	want := Memory(net, 256/4, g, nil)
	want.ActivationWords *= 4
	if len(one) != 1 || !reflect.DeepEqual(one[0], want) {
		t.Fatalf("S=1 MemoryStages %+v != micro-batch Memory with 4 in flight %+v", one, want)
	}
	two := MemoryStages(net, 256, stage.Balanced(len(widx), 2), []grid.Grid{g, g}, nil,
		timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 4})
	if len(two) != 2 {
		t.Fatalf("got %d estimates, want 2", len(two))
	}
	if got, want := two[0].WeightWords+two[1].WeightWords, one[0].WeightWords; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("per-stage weights sum to %g, want %g", got, want)
	}
	// 1F1B warm-up: stage 0 admits S−0 = 2 in-flight micro-batches, stage
	// 1 only 1 — the per-micro-batch stash of stage 0 is doubled.
	if two[0].ActivationWords <= 0 || two[1].ActivationWords <= 0 {
		t.Fatalf("activation stashes must be positive: %+v", two)
	}
}

// pipelineReference prices the one-stage M-micro-batch pipeline from the
// whole-network building blocks, independently of the per-stage loops:
// Eq. 9 on the whole grid at micro-batch size, compute.GridLayerTimes for
// the split and the residual, one schedule over all layers, and the
// flush update over the grid's Pr-sharded weights. StageIteration at
// S = 1 must agree with it bit for bit.
func pipelineReference(e Env, net *nn.Network, B int, g grid.Grid, assign Assignment,
	cm compute.Model, policy timeline.Policy, sched timeline.Schedule) (StagePipelineCost, error) {
	if err := validatePipeline(B, g, sched); err != nil {
		return StagePipelineCost{}, err
	}
	M := sched.MicroBatches
	micro := B / M
	b := e.FullIntegrated(net, micro, g, assign)
	times, ov := cm.GridLayerTimes(net, micro, g)
	res, err := timeline.SimulatePipeline(TimelineLayers(b, times), policy, sched)
	if err != nil {
		return StagePipelineCost{}, err
	}
	var flush float64
	if M > 1 {
		for _, li := range net.WeightedLayers() {
			flush += cm.UpdateTime(float64(net.Layers[li].Weights()) / float64(g.Pr))
		}
	}
	return StagePipelineCost{
		Result:       res,
		Breakdown:    b,
		Overhead:     cm.FixedIter + float64(M)*(ov-cm.FixedIter) + flush,
		FlushSeconds: flush,
	}, nil
}
