package planner

import (
	"math"
	"reflect"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// A strategy boundary inside stage k is redistributed on stage k's rank
// block. AlexNet under conv-domain on 8-rank nodes, S = 4 stages of 3x2
// ranks, with the one boundary (conv5 → fc6, Domain → Model) inside
// stage 1: its block, ranks 6–11, straddles two nodes, while stage 0's
// block sits on one node and would underprice the all-gathers several
// times over.
func TestStagedRedistributionPricedOnOwningStage(t *testing.T) {
	net := nn.AlexNet()
	topo := machine.CoriKNLNodes(8)
	o := opts(ConvDomain)
	o.Topology = topo
	o.Placements = []grid.Placement{grid.RowMajor}
	o.UseTimeline = true
	o.StageCounts = []int{4}
	o.Partition = []int{2, 6, 7} // stage 1 owns weighted layers 2–5 (conv3–fc6)
	g := grid.Grid{Pr: 3, Pc: 2}
	const B = 256
	base := Evaluate(net, B, g, o)
	o.AddRedistribution = true
	with := Evaluate(net, B, g, o)
	if !base.Feasible || !with.Feasible {
		t.Fatalf("infeasible: %q / %q", base.Reason, with.Reason)
	}
	conv5 := &net.Layers[net.WeightedLayers()[4]]
	words := float64(B) / float64(g.Pc) * float64(conv5.OutSize())
	price := func(offset int) float64 {
		spans := g.ColGroupSpansAt(topo.GroupSizes(), grid.RowMajor, offset)
		return 2 * collective.MaxCost(spans, func(s grid.LevelSpan) collective.Cost {
			return collective.AllGatherTopo(s, words, topo)
		}).Total()
	}
	want, onStage0 := price(1*g.P()), price(0)
	if want < 4*onStage0 {
		t.Fatalf("stage 1's block prices the boundary at %g, stage 0's at %g: the configuration no longer straddles nodes", want, onStage0)
	}
	for _, d := range []struct {
		name      string
		got, base float64
	}{{"IterSeconds", with.IterSeconds, base.IterSeconds}, {"CommSeconds", with.CommSeconds, base.CommSeconds}} {
		if got := d.got - d.base; math.Abs(got-want) > 1e-9*want {
			t.Fatalf("redistribution adds %g to %s, want %g priced on stage 1's block (stage 0's block: %g)",
				got, d.name, want, onStage0)
		}
	}
}

// Explicitly asking for the single-stage search (StageCounts = {1}, also
// with a partition cap that only multi-stage counts read) must reproduce
// the default search result exactly — same plans, same telemetry counts.
func TestStageCountsSingleIsBitCompatible(t *testing.T) {
	net := nn.AlexNet()
	base := opts(Auto)
	base.UseTimeline = true
	base.TimelinePolicy = timeline.PolicyBackprop
	base.MicroBatches = []int{1, 2}
	ref, err := Optimize(net, 2048, 256, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Options){
		func(o *Options) { o.StageCounts = []int{1} },
		func(o *Options) { o.StageCounts, o.MaxPartitions = []int{1}, 1 },
	} {
		o := base
		mutate(&o)
		got, err := Optimize(net, 2048, 256, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Best, ref.Best) || !reflect.DeepEqual(got.All, ref.All) {
			t.Fatalf("single-stage spelling changed the search result")
		}
		if !reflect.DeepEqual(got.Stats.ZeroTimes(), ref.Stats.ZeroTimes()) {
			t.Fatalf("single-stage spelling changed the telemetry:\n%+v\nvs\n%+v",
				got.Stats.ZeroTimes(), ref.Stats.ZeroTimes())
		}
	}
}

// The acceptance demo: on the three-level rack-taper machine at P=512,
// every two-stage split of 512 ranks into 256+256 crosses the spine at
// rank 255|256, so the partition co-search moves the cut away from the
// balanced-compute split (after conv2, 43264 words/sample of handoff)
// to the thin fc7 boundary (4096 words/sample) — the plan only a search
// that prices stage boundaries against the real topology can find. The
// winners are pinned from the probe run so a regression in the boundary
// pricing shows up as a concrete partition change.
func TestStagePartitionCoSearchAvoidsFatSpineBoundary(t *testing.T) {
	net := nn.AlexNet()
	o := opts(Auto)
	o.Topology = rackTaper()
	o.UseTimeline = true
	o.TimelinePolicy = timeline.PolicyBackprop
	o.Schedule = timeline.OneFOneB
	o.MicroBatches = []int{1, 2, 4, 8}
	o.StageCounts = []int{2}
	res, err := Optimize(net, 2048, 512, o)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if best.Stages != 2 || len(best.PerStage) != 2 {
		t.Fatalf("best plan has %d stages (%d table rows), want 2", best.Stages, len(best.PerStage))
	}
	// The co-searched cut differs from the balanced-compute baseline.
	balanced := stage.BalancedCompute(layerComputeCosts(net), 2)
	if got, want := balanced.Cuts(), []int{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("balanced-compute baseline cut = %v, want %v (fixture drift)", got, want)
	}
	if got, want := best.Partition, []int{6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("co-searched cut = %v, want %v (the thin fc7 boundary)", got, want)
	}
	if got, want := best.Grid, (grid.Grid{Pr: 64, Pc: 4}); got != want {
		t.Fatalf("best per-stage grid = %v, want %v", got, want)
	}
	if best.MicroBatch != 4 {
		t.Fatalf("best micro-batch count = %d, want 4", best.MicroBatch)
	}
	// The per-stage table attributes the handoff to the spine and prices
	// exactly micro × d_in(fc7) words.
	s1 := best.PerStage[1]
	if s1.BoundaryLevelName != "spine" {
		t.Fatalf("boundary attributed to %q, want spine (256-rank blocks straddle racks)", s1.BoundaryLevelName)
	}
	if s1.RankOffset != 256 {
		t.Fatalf("stage 1 rank offset = %d, want 256", s1.RankOffset)
	}
	fc7 := net.Layers[12]
	if want := float64(2048/4) * float64(fc7.InSize()); s1.BoundaryWords != want {
		t.Fatalf("boundary words = %g, want micro × d_in(fc7) = %g", s1.BoundaryWords, want)
	}
	if s1.BoundarySeconds <= 0 {
		t.Fatal("spine handoff must carry a positive cost")
	}

	// Pinning the balanced cut instead must price strictly worse: the
	// same spine boundary now carries conv3's activations.
	pinned := o
	pinned.Partition = balanced.Cuts()
	balRes, err := Optimize(net, 2048, 512, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if balRes.Best.IterSeconds <= best.IterSeconds {
		t.Fatalf("balanced split (%g s) should lose to the co-searched split (%g s)",
			balRes.Best.IterSeconds, best.IterSeconds)
	}
	if bw := balRes.Best.PerStage[1].BoundaryWords; bw <= s1.BoundaryWords {
		t.Fatalf("balanced split ships %g boundary words, should exceed the co-searched %g", bw, s1.BoundaryWords)
	}
}

// The pinned-grid entry point prices stage partitions too: with
// StageCounts = {2} the grid is the shared per-stage grid and the
// returned plan carries the stage table.
func TestEvaluatePinnedGridStages(t *testing.T) {
	net := nn.AlexNet()
	o := opts(Uniform)
	o.UseTimeline = true
	o.StageCounts = []int{2}
	p := Evaluate(net, 2048, grid.Grid{Pr: 16, Pc: 16}, o)
	if !p.Feasible {
		t.Fatalf("pinned staged grid infeasible: %s", p.Reason)
	}
	if p.Stages != 2 || len(p.PerStage) != 2 || len(p.Partition) != 1 {
		t.Fatalf("staged evaluate returned S=%d, %d table rows, cuts %v", p.Stages, len(p.PerStage), p.Partition)
	}
	if p.PerStage[1].RankOffset != 256 {
		t.Fatalf("stage 1 offset = %d, want 256 (stage blocks are consecutive)", p.PerStage[1].RankOffset)
	}
	// Sanity: the single-stage evaluate on the same options is untouched.
	o.StageCounts = nil
	if q := Evaluate(net, 2048, grid.Grid{Pr: 16, Pc: 16}, o); q.Stages != 1 || q.PerStage != nil {
		t.Fatalf("default evaluate should stay single-stage, got S=%d", q.Stages)
	}
}

// Option validation: multi-stage search needs the timeline scorer, a
// pinned partition needs a matching stage count, and stage counts that
// cannot tile the machine or the layer list surface as infeasible plans
// rather than silent skips.
func TestStageSearchOptionErrors(t *testing.T) {
	net := nn.AlexNet()
	o := opts(Uniform)
	o.StageCounts = []int{2}
	if _, err := Optimize(net, 2048, 64, o); err == nil {
		t.Fatal("S=2 without UseTimeline should error")
	}
	o.UseTimeline = true
	o.Partition = []int{2, 5}
	if _, err := Optimize(net, 2048, 64, o); err == nil {
		t.Fatal("pinned 3-stage partition with S=2 should error")
	}
	o.Partition = nil
	o.StageCounts = []int{1, 3} // 3 does not divide 64
	res, err := Optimize(net, 2048, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.All {
		if p.Stages == 3 {
			found = true
			if p.Feasible || p.Reason == "" {
				t.Fatalf("S=3 over P=64 should be infeasible with a reason, got %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("the infeasible stage count should still appear in Result.All")
	}
	if !res.Stats.Reconciles() {
		t.Fatalf("stats do not reconcile with an infeasible stage count: %+v", res.Stats)
	}
	// More stages than weighted layers: infeasible, not a crash.
	o.StageCounts = []int{16}
	if _, err := Optimize(net, 2048, 64, o); err == nil {
		t.Fatal("S=16 > 8 weighted layers should leave no feasible configuration")
	}
}
