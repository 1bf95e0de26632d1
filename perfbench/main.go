package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, "|"))
	seed := fs.Int64("seed", 1, "seed the workload's inputs and op order are generated from")
	seconds := fs.Float64("seconds", 10, "time budget of the measured phase(s)")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its Chrome trace to")
	setupChild := fs.Bool(setupFlag[2:], false, "answer every distinct input once on a cold instance, print the answers and exit (one set-up sample)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	// One P: the planner's default worker count becomes 1 and the
	// numbers are per-request work, not scheduler luck.
	runtime.GOMAXPROCS(1)

	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *setupChild {
		if err := setupPass(w, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	r := newRunner(w)
	defer r.b.stop()
	if err := r.coldPass(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	if *traced == 0 {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		var setup []time.Duration
		p, err := r.timed(budget, nil, func() error {
			d, err := r.setupChild(self, *seed)
			setup = append(setup, d)
			return err
		})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		metrics = endToEnd(w, setup, p)
		printEndToEnd(stderr, w, metrics)
		fmt.Fprintf(stderr, "  %d ops in %d passes, %.4f ops per wall second\n", p.ops, p.passes, p.rawOpsPerS)
	} else {
		path := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if metrics, err = r.tracedRun(budget, path, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "FAILED:", e)
	}
	out, err := json.Marshal(report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// endToEnd derives the metrics a user of the service sees from the
// set-up samples and an untraced timed phase.
func endToEnd(w *workload, setup []time.Duration, p phase) map[string]metric {
	n := float64(p.ops)
	return map[string]metric{
		"setup_s":         {durMedian(setup).Seconds(), "s"},
		"ops_per_s":       {p.opsPerS, "1/s"},
		"p50_ms":          {ms(p.p50), "ms"},
		"tail_ms":         {ms(p.tail), "ms"},
		"cpu_ms_per_op":   {ms(p.cpuPerOp), "ms"},
		"alloc_kb_per_op": {float64(p.alloc) / 1024 / n, "KB"},
		"live_heap_mb":    {float64(p.live) / (1 << 20), "MB"},
	}
}

func printEndToEnd(w io.Writer, wl *workload, m map[string]metric) {
	fmt.Fprintf(w, "%s (tail_ms = p%g)\n", wl.name, 100*wl.tail)
	for _, k := range []string{"setup_s", "ops_per_s", "p50_ms", "tail_ms", "cpu_ms_per_op", "alloc_kb_per_op", "live_heap_mb"} {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// tracedRun splits the budget between an untraced and a traced phase
// (their throughput difference is the tracing overhead), then replays
// every layer on the workload's inputs, writes the spans as a Chrome
// trace and returns the per-layer metrics.
func (r *runner) tracedRun(budget time.Duration, path string, stderr io.Writer) (map[string]metric, error) {
	plain, err := r.timed(budget/2, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := r.timed(budget/2, tr, nil)
	if err != nil {
		return nil, err
	}
	metrics := r.ladder(tr, stderr)
	metrics["trace.overhead_pct"] = metric{100 * (plain.opsPerS - traced.opsPerS) / plain.opsPerS, "%"}
	printSelfTimes(stderr, tr.selfTimes())
	if err := tr.writeChromeTrace(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stderr, "trace: %s (%d spans)\n", path, len(tr.spans))
	printLayers(stderr, r.w.name, metrics)
	return metrics, nil
}
