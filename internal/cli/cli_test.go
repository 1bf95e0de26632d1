package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dnnparallel"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
	"dnnparallel/internal/timeline"
)

func scenarioPath(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

func runPlan(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := PlanMain(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestPlanCLIAgreesWithAPI is the CLI↔API parity acceptance criterion:
// `dnnplan -config <scenario>` must emit exactly what a library caller
// rendering dnnparallel.Plan's result for the same file would produce.
func TestPlanCLIAgreesWithAPI(t *testing.T) {
	for _, name := range []string{"alexnet-p512.json", "alexnet-topology.json", "alexnet-pipeline.json"} {
		t.Run(name, func(t *testing.T) {
			out, errOut, code := runPlan(t, "-config", scenarioPath(name))
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			sc, err := dnnparallel.LoadScenario(scenarioPath(name))
			if err != nil {
				t.Fatal(err)
			}
			res, err := dnnparallel.Plan(sc.Normalize())
			if err != nil {
				t.Fatal(err)
			}
			if want := RenderPlan(res, false); out != want {
				t.Fatalf("CLI output diverges from the façade:\n--- CLI ---\n%s--- API ---\n%s", out, want)
			}
		})
	}
}

// TestPlanFlagsEquivalentToConfig: the flag spelling of the default
// scenario must produce byte-identical output to the -config spelling —
// flags are overrides on the same scenario, not a second code path.
func TestPlanFlagsEquivalentToConfig(t *testing.T) {
	fromFlags, errOut, code := runPlan(t, "-net", "alexnet", "-B", "2048", "-P", "512", "-mode", "auto")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	fromConfig, errOut, code := runPlan(t, "-config", scenarioPath("alexnet-p512.json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	bare, errOut, code := runPlan(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if fromFlags != fromConfig || bare != fromConfig {
		t.Fatal("flag, config, and default spellings of the same scenario disagree")
	}
}

// TestPlanCLIMatchesOptimize closes the loop to the planner itself for
// the default scenario: the CLI's underlying result is planner.Optimize
// bit-for-bit (via the façade's Raw passthrough).
func TestPlanCLIMatchesOptimize(t *testing.T) {
	sc, err := dnnparallel.LoadScenario(scenarioPath("alexnet-p512.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dnnparallel.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := planner.Optimize(nn.AlexNet(), 2048, 512, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock telemetry differs run to run; counts must match exactly.
	res.Raw.Stats = res.Raw.Stats.ZeroTimes()
	ref.Stats = ref.Stats.ZeroTimes()
	if !reflect.DeepEqual(*res.Raw, ref) {
		t.Fatal("scenario-file plan diverges from planner.Optimize")
	}
}

// TestPlanFlagOverridesConfig: a flag wins over the scenario field.
func TestPlanFlagOverridesConfig(t *testing.T) {
	out, errOut, code := runPlan(t, "-config", scenarioPath("alexnet-p512.json"), "-B", "1024")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "B=1024") {
		t.Fatalf("override lost: %s", out[:80])
	}
}

// TestPlanTopologyAndPipelinePaths smokes the -ppn and -micro flag paths
// end to end (placement column, µbatch column, gantt).
func TestPlanTopologyAndPipelinePaths(t *testing.T) {
	out, errOut, code := runPlan(t, "-nodes", "64", "-ppn", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "place") || !strings.Contains(out, "P=512") {
		t.Fatalf("topology output malformed:\n%s", out)
	}
	out, errOut, code = runPlan(t, "-policy", "backprop", "-micro", "1,2,4", "-gantt")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "µbatch") || !strings.Contains(out, "makespan") {
		t.Fatalf("pipeline/gantt output malformed:\n%s", out)
	}
}

// TestPlanLevelsFlag: -levels prices against an N-level topology end to
// end — the machine line names the hierarchy, the plan table grows the
// placement column, and the per-level attribution table names every
// level of the flag.
func TestPlanLevelsFlag(t *testing.T) {
	out, errOut, code := runPlan(t,
		"-levels", "node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "place") {
		t.Fatalf("-levels output missing the placement column:\n%s", out)
	}
	if !strings.Contains(out, "Per-level communication") {
		t.Fatalf("-levels output missing the per-level attribution table:\n%s", out)
	}
	for _, level := range []string{"node", "rack", "spine"} {
		if !strings.Contains(out, level) {
			t.Fatalf("per-level table missing level %q:\n%s", level, out)
		}
	}
	// The per-level lanes reach the gantt legend too.
	out, errOut, code = runPlan(t,
		"-levels", "node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6",
		"-policy", "backprop", "-gantt")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "net-node") {
		t.Fatalf("gantt legend does not name the per-level lanes:\n%s", out)
	}
}

// TestPlanLevelRowsSumToComm: the best plan's per-level table adds up to
// its comm s/iter, in closed form and on the timeline, where the
// breakdown prices one micro-batch and the levels come from the
// simulated lanes.
func TestPlanLevelRowsSumToComm(t *testing.T) {
	for _, args := range [][]string{
		{"-config", scenarioPath("alexnet-rack.json")},
		{"-config", scenarioPath("alexnet-rack.json"), "-grid", "128x4", "-micro", "4", "-policy", "backprop"},
	} {
		out, errOut, code := runPlan(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		cells := regexp.MustCompile(`\s{2,}`)
		lines := strings.Split(out, "\n")
		comm, col, sum, levels := -1.0, -1, 0.0, 0
		for i, line := range lines {
			f := cells.Split(strings.TrimSpace(line), -1)
			switch {
			case col < 0 && strings.HasPrefix(line, "Grid"):
				col = slices.Index(f, "comm s/iter")
			case col >= 0 && comm < 0 && strings.HasSuffix(f[len(f)-1], "← best"):
				comm, _ = strconv.ParseFloat(f[col], 64)
			case strings.HasPrefix(line, "Per-level communication"):
				for _, row := range lines[i+3:] {
					if row == "" {
						break
					}
					v, err := strconv.ParseFloat(cells.Split(row, -1)[1], 64)
					if err != nil {
						t.Fatalf("%v: level row %q: %v", args, row, err)
					}
					sum += v
					levels++
				}
			}
		}
		// Each printed value carries four significant digits.
		if levels != 3 || comm <= 0 || math.Abs(sum-comm) > 2e-3*comm {
			t.Fatalf("%v: %d level rows sum to %g, best plan's comm s/iter %g:\n%s", args, levels, sum, comm, out)
		}
	}
}

// TestPlanStagesFlag drives the stage-partitioned search end to end from
// the command line: -stages grows the per-stage table, -partition pins
// the cuts, and the flag spelling matches the config-file spelling
// byte for byte.
func TestPlanStagesFlag(t *testing.T) {
	out, errOut, code := runPlan(t, "-P", "64", "-policy", "backprop", "-micro", "1,2", "-stages", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Per-stage partition of the best plan (S=2") {
		t.Fatalf("-stages output missing the per-stage table:\n%s", out)
	}
	for _, col := range []string{"rank0", "stash GB", "boundary"} {
		if !strings.Contains(out, col) {
			t.Fatalf("per-stage table missing the %q column:\n%s", col, out)
		}
	}

	pinned, errOut, code := runPlan(t, "-P", "64", "-policy", "backprop", "-micro", "1,2", "-partition", "6")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(pinned, "cuts [6]") {
		t.Fatalf("-partition did not pin the cut:\n%s", pinned)
	}

	// The flag spelling and the scenario-file spelling agree.
	sc := dnnparallel.DefaultScenario()
	sc.Procs = 64
	sc.Timeline = true
	sc.Policy = timeline.PolicyBackprop
	sc.MicroBatches = []int{1, 2}
	sc.Pipeline = &dnnparallel.PipelineSpec{Stages: 2}
	res, err := dnnparallel.Plan(sc.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	if want := RenderPlan(res, false); out != want {
		t.Fatalf("flag and API spellings disagree:\n--- CLI ---\n%s--- API ---\n%s", out, want)
	}
}

// TestPlanErrors: malformed inputs exit 2 (validation class), empty
// feasible sets exit 1, and the messages land on stderr.
func TestPlanErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad mode flag", []string{"-mode", "fancy"}, 2},
		{"bad network", []string{"-net", "lenet"}, 2},
		{"bad micro list", []string{"-micro", "0,2"}, 2},
		{"missing config", []string{"-config", "no-such-file.json"}, 2},
		{"gantt without timeline", []string{"-gantt"}, 2},
		{"nodes without ppn", []string{"-nodes", "4"}, 2},
		{"intra without ppn", []string{"-intra-bw", "60"}, 2},
		{"placement without topology", []string{"-placement", "col-major"}, 2},
		{"levels with sugar flags", []string{"-levels", "node:5e-7:60:16,top:2e-6:6", "-ppn", "16"}, 2},
		{"levels with bw override", []string{"-levels", "node:5e-7:60:16,top:2e-6:6", "-bw", "8"}, 2},
		{"malformed levels", []string{"-levels", "node:fast:60"}, 2},
		{"non-multiple levels", []string{"-levels", "node:5e-7:60:16,rack:1e-6:12:24"}, 2},
		{"infeasible", []string{"-B", "256", "-mode", "conv-batch"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := runPlan(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stdout %q, stderr %q)", code, tc.code, out, errOut)
			}
			if errOut == "" {
				t.Error("expected a message on stderr")
			}
		})
	}
}

// TestSimConfig: dnnsim accepts the shared -config and seeds its setup
// from it (the scenario's P replaces the per-experiment default sweep).
func TestSimConfig(t *testing.T) {
	var out, errOut bytes.Buffer
	code := SimMain([]string{"-config", scenarioPath("alexnet-p512.json"), "-exp", "fig6"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "P=512") {
		t.Fatalf("scenario procs did not seed the sweep:\n%s", s)
	}
	if strings.Contains(s, "P=1024") {
		t.Fatalf("config-seeded run should sweep only the scenario's P:\n%s", s)
	}

	// Flags still override the config.
	out.Reset()
	errOut.Reset()
	code = SimMain([]string{"-config", scenarioPath("alexnet-p512.json"), "-exp", "fig6", "-P", "64"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "P=64") {
		t.Fatalf("-P override lost:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := SimMain([]string{"-exp", "bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown experiment: exit %d (%s)", code, errOut.String())
	}
}

// TestSimKeepsTopologyComputeModel: a topology scenario's peak_tflops
// sets the compute model for dnnsim as it does for dnnplan, so both
// report the same best iteration time for the same scenario.
func TestSimKeepsTopologyComputeModel(t *testing.T) {
	sc, err := dnnparallel.LoadScenario(scenarioPath("alexnet-topology.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Topology.PeakTFlops = 30
	sc.Timeline = true
	sc.Policy = timeline.PolicyBackprop
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topology-peak.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := dnnparallel.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := SimMain([]string{"-config", path, "-exp", "timeline", "-P", strconv.Itoa(sc.Procs)}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := fmt.Sprintf("best grid %s: iter=%ss ", res.Best.Grid, report.F(res.Best.IterSeconds))
	if !strings.Contains(out.String(), want) {
		t.Fatalf("dnnsim disagrees with Plan (want %q):\n%s", want, out.String())
	}
}

// TestSimNodesProcsConsistency: -P must be validated against
// -nodes × -ppn (the flag values), not the scenario's default procs —
// a self-consistent triple runs, a conflicting one exits 2.
func TestSimNodesProcsConsistency(t *testing.T) {
	var out, errOut bytes.Buffer
	code := SimMain([]string{"-exp", "fig6", "-nodes", "4", "-ppn", "8", "-P", "32"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("consistent -nodes 4 -ppn 8 -P 32 rejected: exit %d (%s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "P=32") {
		t.Fatalf("sweep did not run at P=32:\n%s", out.String())
	}
	out.Reset()
	errOut.Reset()
	code = SimMain([]string{"-exp", "fig6", "-nodes", "64", "-ppn", "8", "-P", "1024"}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "conflicts") {
		t.Fatalf("conflicting -P accepted: exit %d (%s)", code, errOut.String())
	}
}

// TestPlanPinnedGridOmitsBaselineClaim: a pinned non-pure-batch grid
// never evaluated the 1×P baseline, so the output must not claim it is
// infeasible.
func TestPlanPinnedGridOmitsBaselineClaim(t *testing.T) {
	out, errOut, code := runPlan(t, "-grid", "8x64")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if strings.Contains(out, "infeasible at") {
		t.Fatalf("pinned-grid output claims the unevaluated baseline is infeasible:\n%s", out)
	}
	// A pinned pure-batch grid IS the baseline: speedup 1.00x.
	out, errOut, code = runPlan(t, "-grid", "1x512")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "1.00x total") {
		t.Fatalf("pinned pure-batch grid should quote a 1.00x speedup:\n%s", out)
	}
}

// TestTrainConfig: dnntrain picks B, P, and the grid up from the
// scenario file.
func TestTrainConfig(t *testing.T) {
	var out, errOut bytes.Buffer
	code := TrainMain([]string{
		"-config", scenarioPath("alexnet-sim-8x64.json"),
		"-strategy", "full", "-pr", "2", "-pc", "2", "-B", "8", "-steps", "2",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "integrated (grid 2x2)") || !strings.Contains(out.String(), "B=8") {
		t.Fatalf("unexpected train output:\n%s", out.String())
	}
}
