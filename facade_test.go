package dnnparallel

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/timeline"
)

// TestPlanMatchesOptimizeBitForBit is the acceptance criterion: the
// façade on the default AlexNet scenario must reproduce a direct
// planner.Optimize call with DefaultOptions exactly — same best plan,
// same breakdowns, same per-grid table, to the last bit.
func TestPlanMatchesOptimizeBitForBit(t *testing.T) {
	res, err := Plan(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := planner.Optimize(nn.AlexNet(), 2048, 512, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw == nil {
		t.Fatal("PlanResult.Raw is nil")
	}
	// The search telemetry's wall-clock phase split differs between any
	// two runs; everything else — including the candidate counts and the
	// best-cost trajectory — must match exactly.
	res.Raw.Stats = res.Raw.Stats.ZeroTimes()
	ref.Stats = ref.Stats.ZeroTimes()
	if !reflect.DeepEqual(*res.Raw, ref) {
		t.Fatal("façade result diverges from planner.Optimize")
	}
	if res.Best.Grid != ref.Best.Grid.String() {
		t.Fatalf("best grid %s != %v", res.Best.Grid, ref.Best.Grid)
	}
	wantTotal, wantComm := ref.Speedup()
	if res.SpeedupTotal != wantTotal || res.SpeedupComm != wantComm {
		t.Fatalf("speedups %g/%g, want %g/%g", res.SpeedupTotal, res.SpeedupComm, wantTotal, wantComm)
	}
	if len(res.All) != len(ref.All) {
		t.Fatalf("plan table has %d rows, want %d", len(res.All), len(ref.All))
	}
	if len(res.Best.Assignment) == 0 {
		t.Fatal("best plan is missing its per-layer strategy table")
	}
}

// TestPlanTimelineAndTopologyParity extends the bit-for-bit check to the
// timeline-scored and two-level-topology paths.
func TestPlanTimelineAndTopologyParity(t *testing.T) {
	sc := New("alexnet", 2048, 512, WithTimeline(PolicyBackprop), WithMicroBatches(ScheduleOneFOneB, 1, 2, 4))
	res, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	opts := planner.DefaultOptions()
	opts.UseTimeline = true
	opts.TimelinePolicy = timeline.PolicyBackprop
	opts.MicroBatches = []int{1, 2, 4}
	opts.Schedule = timeline.OneFOneB
	ref, err := planner.Optimize(nn.AlexNet(), 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	res.Raw.Stats = res.Raw.Stats.ZeroTimes()
	ref.Stats = ref.Stats.ZeroTimes()
	if !reflect.DeepEqual(*res.Raw, ref) {
		t.Fatal("timeline façade result diverges from planner.Optimize")
	}

	st := New("alexnet", 2048, 0, WithTopology(64, 16))
	rest, err := Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Scenario.Procs != 1024 {
		t.Fatalf("topology should derive procs = 1024, got %d", rest.Scenario.Procs)
	}
	if !rest.Best.Feasible {
		t.Fatal("topology plan infeasible")
	}
}

// TestPlanPinnedGrid: Scenario.Grid restricts the search to one
// factorization and reproduces the full search's entry for it.
func TestPlanPinnedGrid(t *testing.T) {
	res, err := Plan(New("alexnet", 2048, 512, WithGrid(8, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 1 || res.Best.Grid != "8x64" {
		t.Fatalf("pinned plan table: %+v", res.All)
	}
	full, err := planner.Optimize(nn.AlexNet(), 2048, 512, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range full.All {
		if p.Grid.String() == "8x64" {
			if res.Best.IterSeconds != p.IterSeconds || res.Best.CommSeconds != p.CommSeconds {
				t.Fatalf("pinned grid differs from search entry: %+v vs %+v", res.Best, p)
			}
		}
	}
}

// TestTypedErrors: every malformed scenario surfaces as *ValidationError
// and every empty feasible set as *InfeasibleError — never a panic, and
// never an untyped error a service could not map to a status code.
func TestTypedErrors(t *testing.T) {
	valid := map[string]Scenario{
		"unknown network": New("lenet", 2048, 512),
		"zero batch":      New("alexnet", 0, 512),
		"zero procs":      New("alexnet", 2048, 0),
		"bad grid": func() Scenario {
			s := DefaultScenario()
			s.Grid = "8by64"
			return s
		}(),
		"grid procs clash": func() Scenario {
			s := DefaultScenario()
			s.Grid = "8x8"
			return s
		}(),
		"machine and topology": func() Scenario {
			s := DefaultScenario()
			s.Machine = &MachineSpec{AlphaSeconds: 1e-6}
			s.Topology = &TopologySpec{RanksPerNode: 16}
			return s
		}(),
	}
	for name, sc := range valid {
		t.Run(name, func(t *testing.T) {
			_, err := Plan(sc)
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("Plan error is %T (%v), want *ValidationError", err, err)
			}
			_, err = Simulate(sc)
			if !errors.As(err, &ve) {
				t.Fatalf("Simulate error is %T (%v), want *ValidationError", err, err)
			}
		})
	}

	// Conv-batch mode with P > B leaves no feasible grid at all.
	_, err := Plan(New("alexnet", 256, 512, WithMode(ModeConvBatch)))
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("Plan error is %T (%v), want *InfeasibleError", err, err)
	}
	// A pinned grid whose Pc exceeds B is individually infeasible.
	_, err = Plan(New("alexnet", 16, 512, WithGrid(1, 512)))
	if !errors.As(err, &ie) {
		t.Fatalf("pinned Plan error is %T (%v), want *InfeasibleError", err, err)
	}
}

// TestFacadeReturnsErrorsWithoutRecovering: the façade's no-panic
// guarantee comes from eager validation, not from a recover() at the
// boundary. The regression is two-sided: (a) the malformed inputs that
// used to panic deep in costmodel now come back as typed errors, and
// (b) the internal fast paths still panic when called directly — proof
// nothing is swallowing panics in between.
func TestFacadeReturnsErrorsWithoutRecovering(t *testing.T) {
	// (a) B = 0 used to reach costmodel.EpochIterations' divide guard.
	if _, err := Plan(New("alexnet", 0, 512, WithDataset(1200000))); err == nil {
		t.Fatal("expected an error for B=0")
	}
	// (b) the internal contract is unchanged: panics, not errors.
	for name, f := range map[string]func(){
		"EpochIterations B=0": func() { costmodel.EpochIterations(100, 0) },
		"EpochIterations N<0": func() { costmodel.EpochSeconds(0.1, -1, 64) },
		"timeline negative": func() {
			timeline.SimulatePipeline([]timeline.Layer{{FwdComp: -1}}, timeline.PolicyNone, timeline.Single())
		},
		"IterationTotals NaN": func() { costmodel.IterationTotals(&costmodel.Breakdown{}, -1, false) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("internal fast path no longer panics — the façade's validation is now load-bearing elsewhere")
				}
			}()
			f()
		})
	}
}

// TestSimulate covers the pinned-configuration path: per-layer schedule,
// grid requirement, and the pipeline variant.
func TestSimulate(t *testing.T) {
	res, err := Simulate(New("alexnet", 2048, 512, WithGrid(8, 64), WithTimeline(PolicyBackprop)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.PerLayer) == 0 || res.Raw == nil {
		t.Fatalf("degenerate simulation: %+v", res)
	}
	if res.MicroBatches != 1 || res.Stages != 1 {
		t.Fatalf("single-iteration sim reports M=%d S=%d", res.MicroBatches, res.Stages)
	}

	_, err = Simulate(New("alexnet", 2048, 512))
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "grid" {
		t.Fatalf("grid-less Simulate: %v", err)
	}

	pipe, err := Simulate(New("alexnet", 2048, 512, WithGrid(8, 64),
		WithMicroBatches(ScheduleGPipe, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.MicroBatches != 4 {
		t.Fatalf("pipeline sim reports M=%d, want 4", pipe.MicroBatches)
	}
	if pipe.Config.MicroBatch != 4 || pipe.Config.Schedule != ScheduleGPipe {
		t.Fatalf("pipeline config summary: %+v", pipe.Config)
	}
}

// TestPlanResultJSON: the wire form must carry the scenario, the table,
// and the best assignment, and must not leak the internal Raw pointer.
func TestPlanResultJSON(t *testing.T) {
	res, err := Plan(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "machine", "network", "best", "all"} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire form missing %q", key)
		}
	}
	if _, ok := m["Raw"]; ok {
		t.Error("wire form leaks the internal Raw result")
	}
	var back PlanResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("wire form does not decode into PlanResult: %v", err)
	}
	if back.Best.Grid != res.Best.Grid || back.SpeedupTotal != res.SpeedupTotal {
		t.Fatal("wire round trip lost the best plan")
	}
}

// TestPlanTimeToAccuracyBuilders drives the campaign search through the
// façade builders alone: WithBatchSizes implies the tta objective, the
// winner carries the campaign fields over the wire, and the losing batch
// sizes appear in All alongside it.
func TestPlanTimeToAccuracyBuilders(t *testing.T) {
	sc := New("alexnet", 512, 512,
		WithBatchSizes(256, 512, 1024, 2048),
		WithConvergence(ConvergenceSpec{StepsAtB1: 1.5e8}))
	if sc.Objective != ObjectiveTimeToAccuracy {
		t.Fatalf("builders left objective = %v, want time-to-accuracy", sc.Objective)
	}
	res, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if best.Batch == 0 || best.StepsToTarget <= 0 || best.TimeToAccuracySeconds <= 0 {
		t.Fatalf("tta winner missing campaign fields: %+v", best)
	}
	if got := best.StepsToTarget * best.IterSeconds; got != best.TimeToAccuracySeconds {
		t.Fatalf("tta = %g, want steps × iter = %g", best.TimeToAccuracySeconds, got)
	}
	batches := map[int]bool{}
	for _, p := range res.All {
		batches[p.Batch] = true
	}
	for _, b := range []int{256, 512, 1024, 2048} {
		if !batches[b] {
			t.Fatalf("All misses candidate batch %d (got %v)", b, batches)
		}
	}
	// The same spec under the iteration objective is rejected: B is
	// fixed by definition there.
	bad := sc
	bad.Objective = ObjectiveIteration
	if _, err := Plan(bad); err == nil {
		t.Fatal("Plan accepted batch_sizes under the iteration objective")
	}
}

// A ~200-byte request for an exhaustive 8-stage VGG16 search (~386k
// candidate plans) is rejected by validation, before any search starts.
func TestPlanRejectsOversizedSearch(t *testing.T) {
	sc, err := DecodeScenario([]byte(`{"network":"vgg16","batch":8192,"procs":4096,"mode":"auto","timeline":true,"policy":"backprop","micro_batches":[1,2,4,8,16,32],"schedule":"1f1b","pipeline":{"stages":8,"max_partitions":6435}}`))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Plan(sc)
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "candidates" {
		t.Fatalf("Plan error %v, want a *ValidationError on candidates", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v", d)
	}
}

// A prime process count near 1e14 has only two grids, so it passed
// validation and then kept the planner busy in O(P) loops; it is now a
// *ValidationError on procs, returned in well under a second.
func TestPlanRejectsHugeProcs(t *testing.T) {
	sc, err := DecodeScenario([]byte(`{"network":"alexnet","batch":1024,"procs":99999999999973}`))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Plan(sc)
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "procs" {
		t.Fatalf("Plan error %v, want a *ValidationError on procs", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v", d)
	}
}
