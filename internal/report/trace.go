// Chrome trace-event export: a simulated timeline.Result rendered as
// the JSON Object Format of the Trace Event specification, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. Each pipeline
// stage becomes one "process" row and each lane (compute, network, and
// one track per topology link level, named after the level — net-node,
// net-rack, …) one named "thread" track within it, so the
// schedule reads exactly like the simulator models it: micro-batches
// contending within a stage, stages running concurrently.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dnnparallel/internal/timeline"
)

// TraceEvent is one entry of the traceEvents array. Complete events
// (ph "X") carry a wall-clock start and duration in microseconds;
// metadata events (ph "M") name the process and thread rows.
type TraceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	// Ts and Dur are microseconds, the unit the trace viewers expect.
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the JSON Object Format envelope.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ChromeTraceEvents translates a simulated schedule into trace events:
// one complete ("X") event per span on the (stage, lane) track it ran
// on, preceded by metadata naming every track. Spans keep the
// simulator's start order; per track they are non-overlapping by
// construction (each lane runs one event at a time).
func ChromeTraceEvents(res *timeline.Result) []TraceEvent {
	type track struct{ pid, tid int }
	seen := make(map[track]timeline.Resource)
	var events []TraceEvent
	for _, s := range res.Spans {
		tr := track{pid: s.Resource.PipelineStage(), tid: int(s.Resource.Base())}
		seen[tr] = s.Resource
		events = append(events, TraceEvent{
			Name: res.SpanName(s),
			Cat:  s.Kind.String(),
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			Pid:  tr.pid,
			Tid:  tr.tid,
			Args: map[string]any{
				"micro":   s.Micro,
				"layer":   s.Layer,
				"kind":    s.Kind.String(),
				"lane":    res.LaneName(s.Resource.Base()),
				"seconds": s.End - s.Start,
			},
		})
	}
	tracks := make([]track, 0, len(seen))
	for tr := range seen {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	meta := make([]TraceEvent, 0, 2*len(tracks))
	named := make(map[int]bool)
	for _, tr := range tracks {
		if !named[tr.pid] {
			named[tr.pid] = true
			meta = append(meta, TraceEvent{
				Name: "process_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
				Args: map[string]any{"name": fmt.Sprintf("pipeline stage %d", tr.pid)},
			})
		}
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": res.LaneName(seen[tr].Base())},
		})
	}
	return append(meta, events...)
}

// ChromeTrace renders a simulated schedule as Chrome trace-event JSON.
func ChromeTrace(res *timeline.Result) ([]byte, error) {
	return json.MarshalIndent(TraceFile{
		TraceEvents:     ChromeTraceEvents(res),
		DisplayTimeUnit: "ms",
	}, "", " ")
}

// WriteChromeTrace writes ChromeTrace output to w.
func WriteChromeTrace(w io.Writer, res *timeline.Result) error {
	data, err := ChromeTrace(res)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
