package dnnparallel

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnnparallel/internal/report"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current planner")

// goldenCase is one rendered façade answer: a scenario file, optionally
// pinned to a grid (and to micro-batch counts, or scored by the timeline
// under a non-default policy), answered by Plan, Simulate, or the Chrome
// trace of Simulate's schedule.
type goldenCase struct {
	name     string
	scenario string
	grid     string
	micro    []int
	policy   Policy
	simulate bool
	trace    bool
}

func goldenCases(t *testing.T) []goldenCase {
	files, err := filepath.Glob("examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	var cases []goldenCase
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		cases = append(cases, goldenCase{name: "plan-" + name, scenario: f})
	}
	return append(cases,
		goldenCase{name: "plan-alexnet-pipeline-32x16", scenario: "examples/scenarios/alexnet-pipeline.json", grid: "32x16"},
		goldenCase{name: "plan-alexnet-stages-4x8", scenario: "examples/scenarios/alexnet-stages.json", grid: "4x8"},
		goldenCase{name: "simulate-alexnet-sim-8x64", scenario: "examples/scenarios/alexnet-sim-8x64.json", simulate: true},
		goldenCase{name: "trace-alexnet-stages-4x8", scenario: "examples/scenarios/alexnet-stages.json", grid: "4x8", trace: true},
		goldenCase{name: "trace-alexnet-rack-16x32", scenario: "examples/scenarios/alexnet-rack.json", grid: "16x32", micro: []int{2}, trace: true},
		goldenCase{name: "simulate-alexnet-rack-16x32", scenario: "examples/scenarios/alexnet-rack.json", grid: "16x32", policy: PolicyBackprop, simulate: true},
		goldenCase{name: "trace-alexnet-rack-16x32-m1", scenario: "examples/scenarios/alexnet-rack.json", grid: "16x32", policy: PolicyBackprop, trace: true},
		goldenCase{name: "plan-alexnet-rack-micro-backprop", scenario: "examples/scenarios/alexnet-rack.json", micro: []int{1, 2}, policy: PolicyBackprop},
	)
}

// render answers the case and returns its JSON form with the search
// telemetry's wall-clock fields cleared (they differ run to run).
func (c goldenCase) render() ([]byte, error) {
	sc, err := LoadScenario(c.scenario)
	if err != nil {
		return nil, err
	}
	if c.grid != "" {
		sc.Grid = c.grid
	}
	if c.micro != nil {
		sc.MicroBatches = c.micro
	}
	if c.policy != PolicyNone {
		sc.Timeline, sc.Policy = true, c.policy
	}
	if c.trace {
		sim, err := Simulate(sc)
		if err != nil {
			return nil, err
		}
		return report.ChromeTrace(sim.Raw)
	}
	var out any
	if c.simulate {
		out, err = Simulate(sc)
	} else {
		var res *PlanResult
		res, err = Plan(sc)
		if err == nil && res.Stats != nil {
			st := res.Stats.ZeroTimes()
			res.Stats = &st
		}
		out = res
	}
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(out, "", " ")
}

// TestGoldenPlanOutputs pins the façade's answers for every example
// scenario, a pinned-grid Plan of the pipelined and stage-partitioned
// scenarios, pinned-grid Simulates on a flat and a three-level machine,
// the Chrome traces of a staged micro-batched schedule and of
// three-level schedules at M = 2 and M = 1, and a three-level timeline
// search over M ∈ {1, 2}. Structure (grids, placements,
// micro-batch and stage counts, partitions, assignments, reasons, search
// counts) must match exactly; floats to 1e-12 relative, so the files
// hold on architectures that fuse multiply-adds. Regenerate with
// go test -run TestGoldenPlanOutputs -update-golden.
func TestGoldenPlanOutputs(t *testing.T) {
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			var g, w any
			if err := json.Unmarshal(got, &g); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatal(err)
			}
			var diffs []string
			goldenDiff("$", g, w, &diffs)
			if len(diffs) > 0 {
				if len(diffs) > 20 {
					diffs = append(diffs[:20], fmt.Sprintf("… %d more", len(diffs)-20))
				}
				t.Fatalf("output drifted from %s:\n%s", path, strings.Join(diffs, "\n"))
			}
		})
	}
}

// goldenDiff walks two decoded JSON trees, appending one line per
// difference: any structural or string/bool mismatch, and numbers that
// differ by more than 1e-12 relative.
func goldenDiff(path string, got, want any, diffs *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			*diffs = append(*diffs, fmt.Sprintf("%s: got %T, want object", path, got))
			return
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, gok := g[k]
			wv, wok := w[k]
			if gok != wok {
				*diffs = append(*diffs, fmt.Sprintf("%s.%s: present=%v, want present=%v", path, k, gok, wok))
				continue
			}
			goldenDiff(path+"."+k, gv, wv, diffs)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			*diffs = append(*diffs, fmt.Sprintf("%s: got %v, want %d-element array", path, shape(got), len(w)))
			return
		}
		for i := range w {
			goldenDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], diffs)
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > 1e-12*math.Max(math.Abs(g), math.Abs(w)) {
			*diffs = append(*diffs, fmt.Sprintf("%s: got %v, want %v", path, got, w))
		}
	default:
		if got != want {
			*diffs = append(*diffs, fmt.Sprintf("%s: got %v, want %v", path, got, want))
		}
	}
}

func shape(v any) string {
	if a, ok := v.([]any); ok {
		return fmt.Sprintf("%d-element array", len(a))
	}
	return fmt.Sprintf("%T", v)
}
