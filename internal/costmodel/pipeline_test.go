package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// The degenerate pipeline (M = 1) must price exactly like the
// single-iteration timeline path: same breakdown, same layer times, same
// makespan, and overhead equal to GridLayerTimes' residual — across
// random nets, grids, policies, and both flat and two-level
// environments.
func TestPipelineIterationSingleMatchesTimelinePath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cm := compute.KNLCaffe()
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(rng)
		if net == nil {
			continue
		}
		env := FlatEnv(knl())
		if trial%3 == 0 {
			env = Env{Topo: machine.CoriKNLNodes(4), Placement: grid.ColMajor}
		}
		g := grid.Grid{Pr: 1 << rng.Intn(4), Pc: 1 << rng.Intn(4)}
		B := g.Pc * (1 + rng.Intn(8))
		assign := UniformAssignment(net, Model)
		for _, pol := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
			pc, err := singleStage(env, net, B, g, assign, cm, pol, timeline.Single())
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			b := env.FullIntegrated(net, B, g, assign)
			times, ov := cm.GridLayerTimes(net, B, g)
			want, err := timeline.SimulatePipeline(TimelineLayers(b, times), pol, timeline.Single())
			if err != nil {
				t.Fatal(err)
			}
			if pc.Result.Makespan != want.Makespan {
				t.Fatalf("trial %d policy %v: M=1 pipeline makespan %g != single-iteration %g",
					trial, pol, pc.Result.Makespan, want.Makespan)
			}
			if pc.Overhead != ov {
				t.Fatalf("trial %d: M=1 overhead %g != GridLayerTimes residual %g", trial, pc.Overhead, ov)
			}
			if pc.IterSeconds() != want.Makespan+ov {
				t.Fatalf("trial %d: IterSeconds %g != makespan+overhead %g", trial, pc.IterSeconds(), want.Makespan+ov)
			}
		}
	}
}

// At M = 1 the overhead is GridLayerTimes' residual bit for bit even
// where FixedIter + (residual − FixedIter) rounds away from it: AlexNet
// at B=8192 on a 32×1 grid carries a 15.4 ms residual, over twice
// FixedIter.
func TestPipelineIterationSingleHighResidual(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	g := grid.Grid{Pr: 32, Pc: 1}
	_, ov := cm.GridLayerTimes(net, 8192, g)
	if cm.FixedIter+(ov-cm.FixedIter) == ov {
		t.Fatalf("residual %g no longer exercises the reassociation (FixedIter %g)", ov, cm.FixedIter)
	}
	pc, err := singleStage(FlatEnv(knl()), net, 8192, g, UniformAssignment(net, Model), cm,
		timeline.PolicyBackprop, timeline.Single())
	if err != nil {
		t.Fatal(err)
	}
	if pc.Overhead != ov {
		t.Fatalf("M=1 overhead %v != GridLayerTimes residual %v", pc.Overhead, ov)
	}
}

// Pinned behavior on the Table 1 configuration (AlexNet, B=2048, flat
// Cori-KNL, 32×16 grid) under PolicyBackprop: a shallow pipeline (M=2)
// beats the single-iteration schedule — inter-batch pipelining hides the
// blocking forward all-gathers — while a deep pipeline (M=32) pays the
// α-term penalty of B/M-sized collectives and degrades again.
func TestPipelineSweetSpotOnAlexNet(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	e := FlatEnv(machine.CoriKNL())
	g := grid.Grid{Pr: 32, Pc: 16}
	assign := UniformAssignment(net, Model)
	iter := func(M int, pol timeline.Policy) float64 {
		pc, err := singleStage(e, net, 2048, g, assign, cm, pol,
			timeline.Schedule{Shape: timeline.GPipe, MicroBatches: M, Stages: 1})
		if err != nil {
			t.Fatal(err)
		}
		return pc.IterSeconds()
	}
	if m1, m2 := iter(1, timeline.PolicyBackprop), iter(2, timeline.PolicyBackprop); m2 >= m1 {
		t.Errorf("backprop: M=2 (%g) should beat M=1 (%g) by hiding forward all-gathers", m2, m1)
	}
	if m2, m32 := iter(2, timeline.PolicyBackprop), iter(32, timeline.PolicyBackprop); m32 <= m2 {
		t.Errorf("backprop: M=32 (%g) should pay the α penalty over M=2 (%g)", m32, m2)
	}
	// Under PolicyNone nothing overlaps, so micro-batching only adds α
	// terms: iteration time is strictly increasing in M.
	prev := iter(1, timeline.PolicyNone)
	for _, M := range []int{2, 4, 8} {
		cur := iter(M, timeline.PolicyNone)
		if cur <= prev {
			t.Errorf("none: iter(M=%d)=%g should exceed iter at the previous M (%g)", M, cur, prev)
		}
		prev = cur
	}
}

// The flush keeps the ∆W all-reduce per-iteration, not per-micro-batch:
// the simulated communication time at M micro-batches is M× the
// activation terms plus 1× the gradient terms.
func TestPipelineCommFlushAccounting(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	e := FlatEnv(machine.CoriKNL())
	g := grid.Grid{Pr: 32, Pc: 16}
	assign := UniformAssignment(net, Model)
	const B, M = 2048, 8
	pc, err := singleStage(e, net, B, g, assign, cm, timeline.PolicyBackprop,
		timeline.Schedule{Shape: timeline.GPipe, MicroBatches: M, Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := pc.Breakdown // per-micro-batch costs
	want := float64(M)*(b.TotalSeconds()-b.GradReduceSeconds()) + b.GradReduceSeconds()
	if d := math.Abs(pc.Result.CommSeconds - want); d > 1e-12*want {
		t.Fatalf("simulated comm %g, want M·activations + 1·gradients = %g", pc.Result.CommSeconds, want)
	}
}

func TestPipelineValidationErrors(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	e := FlatEnv(machine.CoriKNL())
	assign := UniformAssignment(net, Model)
	cases := []struct {
		name  string
		B     int
		g     grid.Grid
		sched timeline.Schedule
	}{
		{"M=0", 64, grid.Grid{Pr: 4, Pc: 4}, timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 0, Stages: 1}},
		{"M does not divide B", 64, grid.Grid{Pr: 4, Pc: 4}, timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 3, Stages: 1}},
		{"micro-batch thinner than Pc", 64, grid.Grid{Pr: 1, Pc: 32}, timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 4, Stages: 1}},
		{"bad shape", 64, grid.Grid{Pr: 4, Pc: 4}, timeline.Schedule{Shape: timeline.Shape(9), MicroBatches: 2, Stages: 1}},
	}
	for _, c := range cases {
		if _, err := singleStage(e, net, c.B, c.g, assign, cm, timeline.PolicyBackprop, c.sched); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

// singleStage prices the one-stage pipeline of net on grid g:
// StageIteration with the trivial partition.
func singleStage(e Env, net *nn.Network, B int, g grid.Grid, assign Assignment,
	cm compute.Model, policy timeline.Policy, sched timeline.Schedule) (StagePipelineCost, error) {
	return e.StageIteration(net, B, stage.Balanced(len(net.WeightedLayers()), 1), []grid.Grid{g},
		assign, cm, policy, sched)
}
