package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"dnnparallel"
	"dnnparallel/internal/planner"
)

// TestMain lets the test binary stand in for the benchmark's own binary
// when run() starts set-up children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == setupFlag {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare
// against the code.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the layer map and
// the workloads in step: the same metric names and units, and each
// workload's stated tail percentile is the one it reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, wl := range b.Workloads {
		names = append(names, wl.Name)
		w, err := buildWorkload(wl.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("tail_ms is p%g", 100*w.tail); !strings.Contains(wl.Why, want) {
			t.Errorf("%s: why %q does not state %q", wl.Name, wl.Why, want)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	e2e := endToEnd(&workload{tail: 0.5}, nil, phase{ops: 1})
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("%d end_to_end metrics, code reports %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s [%s]: code reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(b.PerLayer) != len(layerMap) {
		t.Fatalf("%d per_layer metrics, layer map has %d", len(b.PerLayer), len(layerMap))
	}
	for i, m := range b.PerLayer {
		if l := layerMap[i]; l.name != m.Name || l.unit != m.Unit {
			t.Errorf("per_layer %d is %s [%s], layer map has %s [%s]", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}

// counts is what a short run must repeat for one seed: every count
// exactly, the bytes allocated to within allocSlack.
type counts struct {
	hits, misses, evictions     int64
	candidates, priced, bounded int
	allocBytes                  uint64
}

// allocSlack bounds how far the bytes allocated by two identical short
// runs may differ. The runtime allocates a goroutine descriptor or a
// sudog only when its free list is empty, which depends on whether the
// previous request's goroutines (net/http's background read, the
// planner's search workers) have exited yet, and net/http reuses its
// pooled bufio buffers only when the connection goroutines have
// returned them; so a few hundred bytes, and now and then a few buffers
// (32 KB seen on serve-mix), move with scheduling. Everything else the
// short run allocates repeats exactly.
const allocSlack = 64 << 10

// shortRun sets up the workload once, then replays its first ops ops
// with the collector paused (sync.Pool in encoding/json and net/http
// drops its cache at each GC, so the bytes allocated would otherwise
// depend on when collections happen) and re-plans the same ops through
// planner.Optimize for the search counts.
func shortRun(t *testing.T, name string, seed int64, ops int) counts {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w)
	defer r.b.stop()
	if err := r.coldPass(); err != nil {
		t.Fatal(err)
	}
	seq := w.seq[:min(ops, len(w.seq))]
	var c counts
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a0 := m.TotalAlloc
	for op, i := range seq {
		res, err := r.b.do(i, op, nil)
		r.check(i, res, err)
	}
	runtime.ReadMemStats(&m)
	debug.SetGCPercent(gc)
	c.allocBytes = m.TotalAlloc - a0
	if r.failed > 0 {
		t.Fatalf("%s: %d failed ops: %v", name, r.failed, r.errs)
	}
	if sd, ok := r.b.(*serveBackend); ok {
		st := sd.srv.Stats()
		c.hits, c.misses, c.evictions = st.Hits, st.Misses, st.Evictions
	}
	for _, i := range seq {
		in := w.inputs[i]
		if in.path != "/v1/plan" || in.status != 200 {
			continue
		}
		sc, err := dnnparallel.DecodeScenario(in.body)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sc.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := planner.Optimize(rs.Net, rs.Batch, rs.Procs, rs.Options)
		if err != nil {
			t.Fatal(err)
		}
		c.candidates += res.Stats.Candidates
		c.priced += res.Stats.Priced
		c.bounded += res.Stats.Bounded
	}
	return c
}

// TestDeterministicShortRun: serve hit/miss/eviction counts and planner
// candidate/priced/bounded counts repeat exactly for one seed, the
// bytes allocated to within allocSlack, and another seed changes the
// op sequence.
func TestDeterministicShortRun(t *testing.T) {
	ops := map[string]int{"serve-mix": 400, "plan-hier": 8}
	for _, name := range workloadNames {
		a := shortRun(t, name, 7, ops[name])
		b := shortRun(t, name, 7, ops[name])
		diff := max(a.allocBytes, b.allocBytes) - min(a.allocBytes, b.allocBytes)
		if diff > allocSlack {
			t.Errorf("%s: seed 7 allocated %d bytes, then %d", name, a.allocBytes, b.allocBytes)
		}
		if a.candidates == 0 || a.allocBytes == 0 || (name == "serve-mix" && a.hits == 0) {
			t.Errorf("%s: empty counts %+v", name, a)
		}
		a.allocBytes, b.allocBytes = 0, 0
		if a != b {
			t.Errorf("%s: seed 7 gave %+v, then %+v", name, a, b)
		}
		w7, _ := buildWorkload(name, 7)
		w8, _ := buildWorkload(name, 8)
		if reflect.DeepEqual(w7.seq, w8.seq) || bytes.Equal(w7.inputs[0].body, w8.inputs[0].body) {
			t.Errorf("%s: seeds 7 and 8 give the same op sequence or inputs", name)
		}
	}
}

// TestTracedRun runs the traced mode briefly: every per-layer metric is
// reported, no op fails, and scripts/validatetrace.go accepts the
// Chrome trace.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "plan-hier", "--seed", "5", "--seconds", "0.4", "--trace", "1", "--trace-out", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	rep := lastReport(t, out.String())
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("report %+v: %s", rep, errOut.String())
	}
	for _, l := range layerMap {
		if m, ok := rep.Metrics[l.name]; !ok || m.Unit != l.unit {
			t.Errorf("per-layer metric %s [%s] missing: %+v", l.name, l.unit, m)
		}
	}
	trace := filepath.Join(dir, "plan-hier-seed5.json")
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to run scripts/validatetrace.go")
	}
	cmd := exec.Command("go", "run", filepath.Join("..", "scripts", "validatetrace.go"), trace)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("validatetrace: %v\n%s", err, msg)
	}
}

// TestEndToEndRun runs every workload briefly untraced and checks the
// report line.
func TestEndToEndRun(t *testing.T) {
	for _, name := range workloadNames {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.3"}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errOut.String())
		}
		rep := lastReport(t, out.String())
		if !rep.Correct || rep.Failed != 0 || len(rep.Metrics) != 7 {
			t.Errorf("%s: report %+v: %s", name, rep, errOut.String())
		}
		for k, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", name, k, m.Value)
			}
		}
	}
}

func lastReport(t *testing.T, stdout string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return rep
}
