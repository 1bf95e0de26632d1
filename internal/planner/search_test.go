package planner

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// TestSlotFoldOrder pins the slot fold's total order at several worker
// counts: an exact tie between placements reports the earlier placement
// (row-major), and a slot none of whose leaves is feasible reports its
// lowest-index leaf's plan and reason.
func TestSlotFoldOrder(t *testing.T) {
	net := nn.AlexNet()
	const B, P = 256, 16
	for _, w := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			// Every grid of the 16 ranks — and each 8-rank stage block —
			// fits inside one 16-rank node, so both placements price
			// bit-identically.
			o := DefaultOptions()
			o.Topology = machine.CoriKNLNodes(16)
			o.UseTimeline = true
			o.TimelinePolicy = timeline.PolicyBackprop
			o.MicroBatches = []int{2, 1}
			o.StageCounts = []int{1, 2}
			o.Workers = w
			res, err := Optimize(net, B, P, o)
			if err != nil {
				t.Fatal(err)
			}
			ties := 0
			for _, p := range res.All {
				if p.Placement != grid.RowMajor {
					t.Fatalf("S=%d grid %v reports %v; an exact placement tie must keep row-major", p.Stages, p.Grid, p.Placement)
				}
				if p.Stages != 1 || !p.Feasible || p.Grid.Pr == 1 || p.Grid.Pc == 1 {
					continue
				}
				col := EvaluateAt(net, B, p.Grid, grid.ColMajor, o)
				col.Placement = grid.RowMajor
				if !reflect.DeepEqual(col, p) {
					t.Fatalf("grid %v: the column-major plan must tie the row-major one exactly", p.Grid)
				}
				ties++
			}
			if ties == 0 {
				t.Fatal("no non-degenerate feasible grid exercised the placement tie")
			}

			// A one-word limit rejects every sized leaf: each slot reports
			// its first leaf — row-major at M = 2, the first micro-batch
			// candidate — not the smaller M.
			o.StageCounts = nil
			o.MemoryLimitWords = 1
			res, err = Optimize(net, B, P, o)
			if err == nil || !strings.Contains(err.Error(), "tightest footprint") {
				t.Fatalf("want the memory-limit error, got %v", err)
			}
			first := o
			first.MicroBatches = []int{2}
			memory := 0
			for _, p := range res.All {
				want := EvaluateAt(net, B, p.Grid, grid.RowMajor, first)
				if !reflect.DeepEqual(p, want) {
					t.Fatalf("grid %v reports M=%d %v (%q), want its first leaf M=%d %v (%q)",
						p.Grid, p.MicroBatch, p.Placement, p.Reason, want.MicroBatch, want.Placement, want.Reason)
				}
				if strings.Contains(p.Reason, "exceeds limit") {
					memory++
				}
			}
			if memory == 0 {
				t.Fatal("no slot fell to the memory limit")
			}
		})
	}
}

// TestSearchRetainsNoPerLeafPlans checks that a search holds its slot
// winners and its leaf list, not a priced plan per leaf: a wide staged
// VGG16 search with bounds off must hold only a few MB after run, where a
// plan per leaf (timeline spans and per-stage tables included) would take
// ~20 KB each, ~135 MB in total.
func TestSearchRetainsNoPerLeafPlans(t *testing.T) {
	o := DefaultOptions()
	o.UseTimeline = true
	o.TimelinePolicy = timeline.PolicyBackprop
	o.MicroBatches = []int{1, 2, 4}
	o.Schedule = timeline.OneFOneB
	o.StageCounts = []int{4}
	o.MaxPartitions = 455
	o.DisableBounds = true
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newSearch(nn.VGG16(), 8192, 64, o, true)
	var st SearchStats
	s.enumerate(&st)
	s.run(&st)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d leaves, %d slots: %.2f MB held after run", len(s.leaves), len(s.slots), float64(held)/(1<<20))
	if st.Priced != len(s.leaves) {
		t.Fatalf("priced %d of %d leaves; the search must price every leaf", st.Priced, len(s.leaves))
	}
	if held > 16<<20 {
		t.Fatalf("search holds %.1f MB after run for %d leaves; want O(slots + chunk), under 16 MB",
			float64(held)/(1<<20), len(s.leaves))
	}
}

// TestReportedPlansCarrySpans checks that leaves are scored without
// spans while every reported plan carries them: each feasible slot
// winner is the plan its leaf scores to, plus the schedule's spans and
// per-layer and per-lane statistics.
func TestReportedPlansCarrySpans(t *testing.T) {
	o := DefaultOptions()
	o.UseTimeline = true
	o.TimelinePolicy = timeline.PolicyBackprop
	o.MicroBatches = []int{1, 2}
	o.StageCounts = []int{1, 2}
	o.DisableBounds = true
	net := nn.AlexNet()
	s := newSearch(net, 256, 16, o, true)
	var st SearchStats
	s.enumerate(&st)
	s.run(&st)
	if st.TimelineSimulated != st.Priced {
		t.Errorf("TimelineSimulated = %d, Priced = %d: the winners' rerun must not count", st.TimelineSimulated, st.Priced)
	}
	feasible := 0
	for i, sl := range s.slots {
		w := s.winners[i]
		if !w.Feasible {
			continue
		}
		feasible++
		tl := w.Timeline
		if len(tl.Spans) == 0 || len(tl.PerLayer) != len(net.WeightedLayers()) || len(tl.PerResource) == 0 {
			t.Fatalf("slot %d (%v S=%d): reported plan lacks spans or statistics", i, w.Grid, w.Stages)
		}
		var scratch SearchStats
		scored := s.evaluate(&s.leaves[sl.win], &scratch, false)
		if scored.Timeline.Spans != nil || scored.Timeline.PerLayer != nil {
			t.Fatalf("slot %d: a scored leaf carries spans", i)
		}
		bare := *tl
		bare.Spans, bare.PerLayer, bare.PerResource = nil, nil, nil
		w.Timeline = &bare
		if !reflect.DeepEqual(w, scored) {
			t.Fatalf("slot %d: reported plan differs from its scored leaf beyond the spans\nreported %+v\nscored   %+v", i, w, scored)
		}
	}
	if feasible < 2 {
		t.Fatalf("only %d feasible slots; the test needs several", feasible)
	}
}
