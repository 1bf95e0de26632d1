package main

import (
	"fmt"
	"io"
	"strings"
)

// layerMetric records, for one per-layer metric, the public function it
// times from outside, the end-to-end metric a change to that layer
// should move, the workloads where it should move, and the workloads
// predicted to show no change. zeroCalls names the workloads on which
// the search itself never calls the function: the rung is still timed
// on the winner there, but its share of planner.optimize_ms is zero.
type layerMetric struct {
	name, unit string
	measured   string
	moves      string
	on         []string
	control    []string
	zeroCalls  []string
}

var (
	onAll   = []string{"serve-mix", "plan-hier"}
	onServe = []string{"serve-mix"}
	onHier  = []string{"plan-hier"}
)

// layerMap is the layer → metric → workload map. Every per_layer
// metric of BENCHMARK.json has exactly one entry (bench_test.go).
var layerMap = []layerMetric{
	{"serve.hit_us", "us", "Server.Handler().ServeHTTP via httptest, X-Cache: hit", "p50_ms", onServe, onHier, nil},
	{"serve.miss_ms", "ms", "Server.Handler().ServeHTTP via httptest, X-Cache: miss", "tail_ms", onServe, onHier, nil},
	{"serve.hit_ratio", "ratio", "Server.Stats(): hits / (hits + misses + coalesced), exact", "ops_per_s", onServe, nil, nil},
	{"serve.evictions", "count", "Server.Stats().Evictions, exact", "ops_per_s", onServe, nil, nil},
	{"http.overhead_us", "us", "median loopback round trip of a hit − serve.hit_us", "p50_ms", onServe, nil, nil},
	{"scenario.decode_us", "us", "DecodeScenario", "p50_ms", onServe, onHier, nil},
	{"scenario.canonical_us", "us", "Scenario.Canonical (the cache key)", "p50_ms", onServe, onHier, nil},
	{"scenario.resolve_us", "us", "Scenario.Resolve", "p50_ms", onServe, onHier, nil},
	{"dnnparallel.plan_ms", "ms", "dnnparallel.Plan", "ops_per_s", onAll, nil, nil},
	{"dnnparallel.self_us", "us", "Plan − Resolve − Optimize, per input", "ops_per_s", onAll, nil, nil},
	{"render.json_us", "us", "json.Marshal(*PlanResult)", "p50_ms", onServe, nil, nil},
	{"render.kb", "KB", "len(json.Marshal(*PlanResult))", "alloc_kb_per_op", onServe, nil, nil},
	{"planner.optimize_ms", "ms", "planner.Optimize on the resolved options", "ops_per_s, tail_ms", onAll, nil, nil},
	{"planner.optimize_alloc_kb", "KB", "TotalAlloc delta of one planner.Optimize", "alloc_kb_per_op", onAll, nil, nil},
	{"planner.candidates", "count", "Σ SearchStats.Candidates over distinct inputs, exact", "cpu_ms_per_op", onServe, nil, nil},
	{"planner.priced", "count", "Σ SearchStats.Priced, exact", "cpu_ms_per_op", onServe, nil, nil},
	{"planner.bounded_ratio", "ratio", "Σ Bounded / Σ Candidates, exact", "cpu_ms_per_op", onServe, nil, nil},
	{"planner.timeline_sims", "count", "Σ SearchStats.TimelineSimulated, exact", "cpu_ms_per_op", onServe, nil, onHier},
	{"planner.enumerate_ms", "ms", "SearchStats.EnumerateSeconds", "ops_per_s", onAll, nil, nil},
	{"planner.price_ms", "ms", "SearchStats.PriceSeconds", "ops_per_s", onHier, nil, nil},
	{"planner.simulate_ms", "ms", "SearchStats.SimulateSeconds", "tail_ms", onServe, onHier, nil},
	{"planner.leaf_us", "us", "planner.EvaluateAt on the winner's grid, placement, M and batch", "cpu_ms_per_op", onAll, nil, nil},
	{"grid.spans_us", "us", "Grid.ColGroupSpansAt + RowGroupSpansAt for the winner", "ops_per_s, alloc_kb_per_op", onHier, onServe, onServe},
	{"grid.spans_alloc_kb", "KB", "TotalAlloc delta of the same two calls", "alloc_kb_per_op", onHier, onServe, onServe},
	{"collective.allreduce_us", "us", "collective.AllReduceTopo over the winner's column spans", "ops_per_s", onHier, onServe, nil},
	{"costmodel.integrated_us", "us", "Env.FullIntegrated for the winner", "ops_per_s", onHier, nil, nil},
	{"costmodel.stage_us", "us", "Env.StageIteration for the winner's partition (one stage if unstaged)", "tail_ms", onServe, onHier, onHier},
	{"compute.layer_times_us", "us", "compute.Model.GridLayerTimes at the winner's micro-batch size", "ops_per_s", onAll, nil, nil},
	{"timeline.simulate_us", "us", "timeline.SimulatePipeline on costmodel.TimelineLayers of the winner", "tail_ms", onServe, onHier, onHier},
	{"stage.enumerate_us", "us", "stage.Enumerate for the winner's stage count (2 if unstaged)", "setup_s, tail_ms", onServe, onHier, onHier},
	{"ladder.residual_pct", "%", "share of planner.optimize_ms the rungs below do not explain", "n/a", nil, nil, nil},
	{"trace.overhead_pct", "%", "untraced minus traced ops_per_s, as % of untraced", "n/a", nil, nil, nil},
}

func printLayers(w io.Writer, workload string, m map[string]metric) {
	fmt.Fprintf(w, "\nper-layer metrics on %s\n%-26s %14s %-5s  %-26s %-28s %s\n", workload,
		"metric", "value", "unit", "should move", "on (control)", "measured as")
	for _, l := range layerMap {
		on := strings.Join(l.on, ",")
		if len(l.control) > 0 {
			on += " (" + strings.Join(l.control, ",") + ")"
		}
		note := l.measured
		for _, z := range l.zeroCalls {
			if z == workload {
				note += " [search makes no calls here]"
			}
		}
		fmt.Fprintf(w, "%-26s %14.4f %-5s  %-26s %-28s %s\n", l.name, m[l.name].Value, l.unit, l.moves, on, note)
	}
}
