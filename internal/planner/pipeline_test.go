package planner

import (
	"math"
	"strings"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// An explicit MicroBatches = {1} search must reproduce the legacy
// (no-pipeline) planner exactly, plan by plan.
func TestMicroBatchSingletonMatchesLegacy(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.UseTimeline = true
	opts.TimelinePolicy = timeline.PolicyBackprop
	legacy, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MicroBatches = []int{1}
	single, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.All) != len(single.All) {
		t.Fatalf("plan counts differ: %d vs %d", len(legacy.All), len(single.All))
	}
	for i := range legacy.All {
		l, s := legacy.All[i], single.All[i]
		if l.Grid != s.Grid || l.Feasible != s.Feasible || l.IterSeconds != s.IterSeconds ||
			l.CommSeconds != s.CommSeconds || l.MemoryWords != s.MemoryWords {
			t.Fatalf("grid %v: M={1} search diverges from legacy scoring", l.Grid)
		}
		if s.Feasible && s.MicroBatch != 1 {
			t.Fatalf("grid %v: MicroBatch = %d, want 1", s.Grid, s.MicroBatch)
		}
	}
}

// On communication-heavy grids the micro-batch search must find a
// pipelined schedule that strictly beats the single-iteration one, and
// the search over M can never lose to M = 1 anywhere.
func TestMicroBatchSearchHelpsExposedGrids(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.UseTimeline = true
	opts.TimelinePolicy = timeline.PolicyBackprop
	opts.MicroBatches = []int{1, 2, 4, 8, 16}

	g := grid.Grid{Pr: 512, Pc: 1} // pure model parallelism: heavy exposed all-gathers
	searched := Evaluate(net, 2048, g, opts)
	if !searched.Feasible {
		t.Fatalf("512x1 infeasible: %s", searched.Reason)
	}
	if searched.MicroBatch <= 1 {
		t.Fatalf("512x1: expected a pipelined winner, got M=%d", searched.MicroBatch)
	}
	opts1 := opts
	opts1.MicroBatches = []int{1}
	base := Evaluate(net, 2048, g, opts1)
	if searched.IterSeconds >= base.IterSeconds {
		t.Fatalf("512x1: pipelined %g did not beat single-iteration %g", searched.IterSeconds, base.IterSeconds)
	}
	if searched.Timeline == nil || searched.Timeline.MicroBatches != searched.MicroBatch {
		t.Fatalf("512x1: Timeline does not echo the chosen schedule")
	}
	if searched.BubbleFraction != searched.Timeline.BubbleFraction {
		t.Fatalf("512x1: plan bubble %g != timeline bubble %g", searched.BubbleFraction, searched.Timeline.BubbleFraction)
	}

	res, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	base512, err := Optimize(net, 2048, 512, opts1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.IterSeconds > base512.Best.IterSeconds {
		t.Fatalf("searching M ⊇ {1} (%g) must never lose to M=1 (%g)",
			res.Best.IterSeconds, base512.Best.IterSeconds)
	}
	for i := range res.All {
		if res.All[i].Feasible && base512.All[i].Feasible &&
			res.All[i].IterSeconds > base512.All[i].IterSeconds {
			t.Fatalf("grid %v: per-grid best-over-M (%g) lost to M=1 (%g)",
				res.All[i].Grid, res.All[i].IterSeconds, base512.All[i].IterSeconds)
		}
	}
}

// Plan bookkeeping for a pinned pipelined configuration: the simulated
// communication, compute, overhead, and stash must tie together.
func TestPipelinePlanConsistency(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.UseTimeline = true
	opts.TimelinePolicy = timeline.PolicyBackprop
	opts.MicroBatches = []int{4}
	opts.Schedule = timeline.OneFOneB
	g := grid.Grid{Pr: 64, Pc: 8}
	p := EvaluateAt(net, 2048, g, grid.RowMajor, opts)
	if !p.Feasible {
		t.Fatalf("infeasible: %s", p.Reason)
	}
	if p.MicroBatch != 4 || p.Schedule != timeline.OneFOneB {
		t.Fatalf("plan schedule = %v M=%d, want 1f1b M=4", p.Schedule, p.MicroBatch)
	}
	if p.CommSeconds != p.Timeline.CommSeconds {
		t.Fatalf("CommSeconds %g != simulated %g", p.CommSeconds, p.Timeline.CommSeconds)
	}
	overhead := p.CompSeconds - p.Timeline.ComputeSeconds
	if overhead <= 0 {
		t.Fatalf("overhead %g must be positive (FixedIter + unweighted compute)", overhead)
	}
	if d := math.Abs(p.IterSeconds - (p.Timeline.Makespan + overhead)); d > 1e-15*p.IterSeconds {
		t.Fatalf("IterSeconds %g != makespan %g + overhead %g", p.IterSeconds, p.Timeline.Makespan, overhead)
	}
	sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 4, Stages: 1}
	want := oneStageMemory(net, 2048, g, p.Assignment, sched).TotalWords()
	if p.MemoryWords != want {
		t.Fatalf("MemoryWords %g != stash estimate %g", p.MemoryWords, want)
	}
}

// The memory constraint prices the activation stash: a limit that rules
// out the full-batch activations still admits a 1f1b pipeline, whose
// stash at S=1 is a single micro-batch — pipelining as the memory
// escape hatch.
func TestStashAwareMemoryPruning(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.Mode = Uniform // all layers Model: the assignment the estimates below assume
	opts.UseTimeline = true
	opts.TimelinePolicy = timeline.PolicyBackprop
	opts.Schedule = timeline.OneFOneB
	g := grid.Grid{Pr: 32, Pc: 16}
	const B = 2048

	full := costmodel.Memory(net, B, g, costmodel.UniformAssignment(net, costmodel.Model)).TotalWords()
	sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 8, Stages: 1}
	stash := oneStageMemory(net, B, g, costmodel.UniformAssignment(net, costmodel.Model), sched).TotalWords()
	if stash >= full {
		t.Fatalf("1f1b stash %g should undercut the full-batch footprint %g", stash, full)
	}
	opts.MemoryLimitWords = (stash + full) / 2

	opts.MicroBatches = []int{1}
	if p := EvaluateAt(net, B, g, grid.RowMajor, opts); p.Feasible {
		t.Fatalf("M=1 should be memory-infeasible under limit %g (footprint %g)", opts.MemoryLimitWords, p.MemoryWords)
	} else if !strings.Contains(p.Reason, "memory") {
		t.Fatalf("M=1 infeasibility should cite memory, got %q", p.Reason)
	}
	opts.MicroBatches = []int{1, 8}
	p := EvaluateAt(net, B, g, grid.RowMajor, opts)
	if !p.Feasible {
		t.Fatalf("1f1b M=8 should fit in the limit, got: %s", p.Reason)
	}
	if p.MicroBatch != 8 {
		t.Fatalf("expected the M=8 escape hatch, got M=%d", p.MicroBatch)
	}
}

// Candidate validation: M > 1 without timeline scoring is rejected, as
// are non-positive candidates and non-dividing ones (per grid).
func TestMicroBatchValidation(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.MicroBatches = []int{2}
	if _, err := Optimize(net, 2048, 512, opts); err == nil ||
		!strings.Contains(err.Error(), "UseTimeline") {
		t.Fatalf("M=2 without UseTimeline: want a UseTimeline error, got %v", err)
	}
	opts.UseTimeline = true
	opts.MicroBatches = []int{0}
	if _, err := Optimize(net, 2048, 512, opts); err == nil {
		t.Fatal("M=0 must be rejected")
	}
	// A non-dividing candidate is skipped with a reason, not fatal.
	opts.MicroBatches = []int{3}
	opts.TimelinePolicy = timeline.PolicyBackprop
	p := EvaluateAt(net, 2048, grid.Grid{Pr: 32, Pc: 16}, grid.RowMajor, opts)
	if p.Feasible || !strings.Contains(p.Reason, "divide") {
		t.Fatalf("M=3 on B=2048: want a divisibility reason, got feasible=%v %q", p.Feasible, p.Reason)
	}
	// Micro-batches thinner than Pc are pruned.
	opts.MicroBatches = []int{1024}
	p = EvaluateAt(net, 2048, grid.Grid{Pr: 64, Pc: 8}, grid.RowMajor, opts)
	if p.Feasible || !strings.Contains(p.Reason, "thinner") {
		t.Fatalf("B/M=2 < Pc=8: want a thinner-than-Pc reason, got feasible=%v %q", p.Feasible, p.Reason)
	}
}

// oneStageMemory is costmodel.MemoryStages' estimate for the one-stage
// pipeline of net on grid g.
func oneStageMemory(net *nn.Network, B int, g grid.Grid, assign costmodel.Assignment, sched timeline.Schedule) costmodel.MemoryEstimate {
	return costmodel.MemoryStages(net, B, stage.Balanced(len(net.WeightedLayers()), 1), []grid.Grid{g}, assign, sched)[0]
}
