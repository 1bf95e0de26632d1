package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many cold set-ups an untraced run times, each in a
// fresh process; setup_s is their median.
const setupReps = 7

// setupFlag makes the benchmark a set-up child: it answers every
// distinct input once on a cold instance, prints one answer per line
// and exits.
const setupFlag = "--setup-pass"

// runner drives one workload and checks every answer against the
// cold pass.
type runner struct {
	w    *workload
	b    backend
	cold []answer // per input, from the first cold pass
	// attempted and failed count checked ops (set-up, warm-up and timed
	// passes, ladder cross-checks); errs keeps the first few failures.
	attempted, failed int
	errs              []string
}

func newRunner(w *workload) *runner {
	return &runner{w: w, b: newBackend(w), cold: make([]answer, len(w.inputs))}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check compares op i's answer with the cold answer of its canonical
// input.
func (r *runner) check(i int, res result, err error) {
	r.attempted++
	if err != nil {
		r.fail("input %d: %v", i, err)
		return
	}
	if want := r.cold[r.w.inputs[i].canon]; res.ans != want {
		r.fail("input %d: got %v, want %v", i, res.ans, want)
	}
}

// coldPass brings up the instance the timed phases use and answers
// every distinct input once, recording the reference answers. A serve
// workload then replays one untimed pass of the op sequence, so every
// timed pass starts from the same cache state (an LRU's contents after
// a pass that touches at least its capacity of distinct keys depend
// only on that pass).
func (r *runner) coldPass() error {
	if err := r.b.start(); err != nil {
		return err
	}
	for i, in := range r.w.inputs {
		res, err := r.b.do(i, i, nil)
		if in.canon != i {
			r.check(i, res, err)
			continue
		}
		r.attempted++
		switch {
		case err != nil:
			r.fail("input %d: %v", i, err)
		case res.ans.status != in.status:
			r.fail("input %d: status %d, want %d", i, res.ans.status, in.status)
		default:
			r.cold[i] = res.ans
		}
	}
	r.checkIdentity(r.b)
	if r.w.serve {
		for op, i := range r.w.seq {
			res, err := r.b.do(i, op, nil)
			r.check(i, res, err)
		}
	}
	return nil
}

// setupPass is the body of a set-up child: a cold instance answers
// every distinct input once, and each answer is written as one line.
func setupPass(w *workload, out io.Writer) error {
	b := newBackend(w)
	if err := b.start(); err != nil {
		return err
	}
	defer b.stop()
	bw := bufio.NewWriter(out)
	for i := range w.inputs {
		res, err := b.do(i, i, nil)
		if err != nil {
			fmt.Fprintf(bw, "error: %v\n", strings.ReplaceAll(err.Error(), "\n", " "))
			continue
		}
		fmt.Fprintln(bw, res.ans)
	}
	return bw.Flush()
}

// setupChild runs one set-up child, a fresh process of the executable
// self (the benchmark's own binary), checks its answers against the
// cold pass and returns its wall time from launch to exit: process
// start and package initialisation, generating the inputs, bringing up
// a cold instance and answering every distinct input once.
func (r *runner) setupChild(self string, seed int64) (time.Duration, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(self, setupFlag, "--workload", r.w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("set-up child: %v: %s", err, errOut.Bytes())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(r.w.inputs) {
		return d, fmt.Errorf("set-up child answered %d inputs, want %d", len(lines), len(r.w.inputs))
	}
	for i, got := range lines {
		r.attempted++
		if want := r.cold[r.w.inputs[i].canon].String(); got != want {
			r.fail("set-up child, input %d: got %s, want %s", i, got, want)
		}
	}
	return d, nil
}

// checkIdentity checks b's cache accounting when b is a serve backend
// (the façade has no cache).
func (r *runner) checkIdentity(b backend) {
	if sd, ok := b.(*serveBackend); ok {
		r.attempted++
		if err := sd.checkIdentity(); err != nil {
			r.fail("%v", err)
		}
	}
}

// cpuChunks is how many chunks, at fixed positions, each pass is cut
// into for CPU time.
const cpuChunks = 8

// phase is one timed phase: whole passes of the op sequence until its
// time budget is spent. Every pass replays the same ops from the same
// state, so each position of the sequence is timed once per pass, and
// an op's latency is the fastest of its repetitions. Neighbours on a
// shared machine only ever add time, and they do so in bursts that last
// from seconds to minutes; the fastest repetition is what the program
// itself costs.
// The percentiles, the throughput and the CPU time per op are all taken
// over these per-position figures.
type phase struct {
	ops, passes int
	alloc       uint64 // bytes allocated during the phase
	// live is the heap still reachable after a GC at the end of the
	// phase, taken once the per-op latencies are reduced to p50 and
	// tail, so it holds what the program retains plus the benchmark's
	// fixed inputs, not a record that grows with the op count.
	live uint64
	// p50 and tail are percentiles of the per-position latencies.
	p50, tail time.Duration
	// opsPerS is the ops of one pass over the sum of their per-position
	// latencies: the closed loop's throughput at the program's own cost.
	// rawOpsPerS is ops over the phase's wall seconds, for comparison.
	opsPerS, rawOpsPerS float64
	// cpuPerOp is the sum over chunks of each chunk's least CPU time,
	// divided by the ops of a pass.
	cpuPerOp time.Duration
}

// timed runs whole passes until budget is spent. A non-nil pause is
// called setupReps times, at evenly spaced points of the budget, so the
// set-up samples are spread over the run like the passes; its time and
// allocations are left out of the phase.
func (r *runner) timed(budget time.Duration, tr *tracer, pause func() error) (phase, error) {
	var p phase
	seq := r.w.seq
	best := make([]time.Duration, len(seq))
	cpu := make([]time.Duration, cpuChunks)
	for k := range best {
		best[k] = math.MaxInt64
	}
	for c := range cpu {
		cpu[c] = math.MaxInt64
	}
	var paused time.Duration
	var pausedAlloc uint64
	pauses := 0
	runPause := func() error {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		a0, t0 := m.TotalAlloc, time.Now()
		err := pause()
		paused += time.Since(t0)
		runtime.ReadMemStats(&m)
		pausedAlloc += m.TotalAlloc - a0
		pauses++
		return err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	alloc0 := m.TotalAlloc
	t0 := time.Now()
	elapsed := func() time.Duration { return time.Since(t0) - paused }
	for op := 0; p.passes == 0 || elapsed() < budget; p.passes++ {
		if pause != nil && pauses < setupReps && elapsed() >= time.Duration(pauses)*budget/setupReps {
			if err := runPause(); err != nil {
				return p, err
			}
		}
		for c := range cpu {
			lo, hi := c*len(seq)/cpuChunks, (c+1)*len(seq)/cpuChunks
			c0 := cpuTime()
			for k := lo; k < hi; k++ {
				res, err := r.b.do(seq[k], op, tr)
				best[k] = min(best[k], res.lat)
				r.check(seq[k], res, err)
				op++
			}
			cpu[c] = min(cpu[c], cpuTime()-c0)
		}
	}
	wall := elapsed()
	runtime.ReadMemStats(&m)
	p.alloc = m.TotalAlloc - alloc0 - pausedAlloc
	for pause != nil && pauses < setupReps {
		if err := runPause(); err != nil {
			return p, err
		}
	}
	r.checkIdentity(r.b)

	p.ops = p.passes * len(seq)
	p.rawOpsPerS = float64(p.ops) / wall.Seconds()
	var sum, cpuSum time.Duration
	for _, d := range best {
		sum += d
	}
	for _, d := range cpu {
		cpuSum += d
	}
	p.opsPerS = float64(len(seq)) / sum.Seconds()
	p.cpuPerOp = cpuSum / time.Duration(len(seq))
	p.p50, p.tail = quantile(best, 0.5), quantile(best, r.w.tail)
	runtime.GC()
	runtime.ReadMemStats(&m)
	p.live = m.HeapAlloc
	return p, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median of float samples (the mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durMedian(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }
