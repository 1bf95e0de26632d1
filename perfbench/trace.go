package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, −1 at the root
	op         int           // the op (or ladder input) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op. The mutex orders the
// client goroutine's spans against the server goroutine's (they
// alternate; it is never contended).
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (−1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfTime is one layer's share of the traced run.
type selfTime struct {
	name        string
	calls       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its child spans cover (children of one
// span never overlap: every op runs on one client at a time).
func (t *tracer) selfTimes() []selfTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[string]*selfTime{}
	var out []*selfTime
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := by[s.name]
		if st == nil {
			st = &selfTime{name: s.name}
			by[s.name] = st
			out = append(out, st)
		}
		st.calls++
		st.total += s.end - s.start
		self := s.end - s.start - child[i]
		if self > 0 {
			st.self += self
		}
	}
	res := make([]selfTime, len(out))
	for i, st := range out {
		res[i] = *st
	}
	sort.SliceStable(res, func(a, b int) bool { return res[a].self > res[b].self })
	return res
}

func printSelfTimes(w io.Writer, sts []selfTime) {
	var all time.Duration
	for _, st := range sts {
		all += st.self
	}
	fmt.Fprintf(w, "\nself time per layer (traced phase and ladder)\n%-28s %9s %12s %12s %7s\n", "span", "calls", "total ms", "self ms", "self %")
	for _, st := range sts {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f %6.1f%%\n", st.name, st.calls,
			ms(st.total), ms(st.self), 100*float64(st.self)/float64(all))
	}
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes every closed span as a Chrome trace-event
// file (loadable in Perfetto): name, start, duration, and in args the
// span id, its parent's id, and the op id.
func (t *tracer) writeChromeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		ev := traceEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
