package report

import (
	"encoding/json"
	"sort"
	"testing"

	"dnnparallel/internal/timeline"
)

func traceLayers() []timeline.Layer {
	return []timeline.Layer{
		{Name: "conv1", FwdComp: 2e-3, BwdComp: 4e-3, GradReduce: 1e-3},
		{Name: "conv2", FwdComp: 1e-3, BwdComp: 2e-3, AllGather: 5e-4, ActReduce: 5e-4},
		{Name: "fc", FwdComp: 5e-4, BwdComp: 1e-3, AllGather: 2e-4, ActReduce: 2e-4, GradReduce: 8e-4},
		{Name: "loss", FwdComp: 1e-4, BwdComp: 2e-4},
	}
}

// TestChromeTraceSchema checks the exported trace against what Perfetto
// requires of the JSON Object Format: the document parses, every event
// is a metadata ("M") or complete ("X") event, X events have
// non-negative ts/dur, and — per (pid, tid) track — spans are monotone
// and non-overlapping, because each simulator lane runs one event at a
// time.
func TestChromeTraceSchema(t *testing.T) {
	res, err := timeline.SimulatePipeline(traceLayers(), timeline.PolicyBackprop,
		timeline.Schedule{Shape: timeline.GPipe, MicroBatches: 4, Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ChromeTrace(res)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("ChromeTrace emitted invalid JSON")
	}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace does not round-trip through TraceFile: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", tf.DisplayTimeUnit)
	}

	type track struct{ pid, tid int }
	byTrack := make(map[track][]TraceEvent)
	namedProcs := make(map[int]bool)
	namedTracks := make(map[track]bool)
	nX := 0
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				namedProcs[ev.Pid] = true
			case "thread_name":
				namedTracks[track{ev.Pid, ev.Tid}] = true
			default:
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
		case "X":
			nX++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q has negative ts/dur: ts=%g dur=%g", ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Name == "" {
				t.Error("X event with empty name")
			}
			if _, ok := ev.Args["micro"]; !ok {
				t.Errorf("event %q missing micro arg", ev.Name)
			}
			byTrack[track{ev.Pid, ev.Tid}] = append(byTrack[track{ev.Pid, ev.Tid}], ev)
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if nX != len(res.Spans) {
		t.Errorf("trace has %d X events, simulation has %d spans", nX, len(res.Spans))
	}
	if len(namedProcs) != res.Stages {
		t.Errorf("trace names %d processes, schedule has %d stages", len(namedProcs), res.Stages)
	}
	for tr, evs := range byTrack {
		if !namedTracks[tr] {
			t.Errorf("track pid=%d tid=%d has events but no thread_name metadata", tr.pid, tr.tid)
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		// 1 ps of slack absorbs float64 rounding from the seconds → µs
		// conversion; real overlaps are orders of magnitude larger.
		const eps = 1e-6
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].Ts + evs[i-1].Dur
			if evs[i].Ts < prevEnd-eps {
				t.Errorf("track pid=%d tid=%d: %q (ts=%g) overlaps %q (ends %g)",
					tr.pid, tr.tid, evs[i].Name, evs[i].Ts, evs[i-1].Name, prevEnd)
			}
		}
	}
}

// TestChromeTraceLeveledTracks: a hierarchical schedule exports one
// thread track per topology link level, with the track (and each
// event's lane arg) named after the level — net-node, net-rack,
// net-spine — and every per-level track monotone and non-overlapping,
// because each link level is one contention lane in the simulator.
func TestChromeTraceLeveledTracks(t *testing.T) {
	names := []string{"node", "rack", "spine"}
	layers := []timeline.Layer{
		{Name: "conv1", FwdComp: 2e-3, BwdComp: 4e-3, GradReduce: 3e-3,
			Levels: &timeline.LayerLevels{
				Names:      names,
				GradReduce: []float64{1e-3, 1e-3, 1e-3},
			}},
		{Name: "fc", FwdComp: 5e-4, BwdComp: 1e-3, AllGather: 6e-4, GradReduce: 9e-4,
			Levels: &timeline.LayerLevels{
				Names:      names,
				AllGather:  []float64{1e-4, 2e-4, 3e-4},
				GradReduce: []float64{4e-4, 0, 5e-4},
			}},
	}
	res, err := timeline.SimulatePipeline(layers, timeline.PolicyBackprop, timeline.Single())
	if err != nil {
		t.Fatal(err)
	}
	events := ChromeTraceEvents(res)

	trackName := make(map[int]string)
	byTrack := make(map[int][]TraceEvent)
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				trackName[ev.Tid] = ev.Args["name"].(string)
			}
		case "X":
			byTrack[ev.Tid] = append(byTrack[ev.Tid], ev)
			if lane, ok := ev.Args["lane"].(string); !ok || lane != trackNameForEvent(t, res, ev) {
				t.Errorf("event %q lane arg = %v, want %q", ev.Name, ev.Args["lane"], trackNameForEvent(t, res, ev))
			}
		}
	}
	// Every level the split touches gets its own named track; the flat
	// Network lane must not appear at all.
	want := map[string]bool{"compute": true, "net-node": true, "net-rack": true, "net-spine": true}
	got := make(map[string]bool)
	for tid := range byTrack {
		got[trackName[tid]] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("no track named %q in %v", name, got)
		}
	}
	if got["network"] {
		t.Error("leveled schedule still exports the flat network track")
	}
	// Per-level tracks are monotone and non-overlapping.
	const eps = 1e-6
	for tid, evs := range byTrack {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].Ts + evs[i-1].Dur
			if evs[i].Ts < prevEnd-eps {
				t.Errorf("track %q: %q (ts=%g) overlaps %q (ends %g)",
					trackName[tid], evs[i].Name, evs[i].Ts, evs[i-1].Name, prevEnd)
			}
		}
	}
}

// trackNameForEvent recomputes the lane name an X event should carry.
func trackNameForEvent(t *testing.T, res *timeline.Result, ev TraceEvent) string {
	t.Helper()
	return res.LaneName(timeline.Resource(ev.Tid))
}

// TestChromeTraceSingleIteration: the flat single-iteration simulator
// (one stage, one micro-batch) exports with every event on pid 0 and a
// separate thread track per lane.
func TestChromeTraceSingleIteration(t *testing.T) {
	res, err := timeline.SimulatePipeline(traceLayers(), timeline.PolicyNone, timeline.Single())
	if err != nil {
		t.Fatal(err)
	}
	events := ChromeTraceEvents(res)
	lanes := make(map[int]bool)
	for _, ev := range events {
		if ev.Pid != 0 {
			t.Errorf("single-stage trace has pid %d for %q, want 0", ev.Pid, ev.Name)
		}
		if ev.Ph == "X" {
			lanes[ev.Tid] = true
		}
	}
	// PolicyNone with both compute and communication uses at least the
	// compute and network lanes.
	if len(lanes) < 2 {
		t.Errorf("expected ≥ 2 lane tracks, got %d", len(lanes))
	}
}
