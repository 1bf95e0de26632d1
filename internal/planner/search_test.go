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
// lowest-index leaf's plan and reason. EvaluateAt reports its plan in
// full, so on every grid the column-major plan ties the row-major one
// exactly, spans and breakdown included; it also ties the search's best
// entry exactly and every other entry, which keeps only the schedule's
// scores, once reduced to them.
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
				best := reflect.DeepEqual(p, res.Best)
				if p.Placement != grid.RowMajor {
					t.Fatalf("S=%d grid %v reports %v; an exact placement tie must keep row-major", p.Stages, p.Grid, p.Placement)
				}
				if p.Stages != 1 || !p.Feasible || p.Grid.Pr == 1 || p.Grid.Pc == 1 {
					continue
				}
				col := EvaluateAt(net, B, p.Grid, grid.ColMajor, o)
				col.Placement = grid.RowMajor
				if row := EvaluateAt(net, B, p.Grid, grid.RowMajor, o); !reflect.DeepEqual(col, row) {
					t.Fatalf("grid %v: the full column-major plan must tie the full row-major one exactly", p.Grid)
				}
				if !best {
					if p.Timeline.Spans != nil || p.Breakdown != nil {
						t.Fatalf("grid %v: a non-best entry carries spans or a breakdown", p.Grid)
					}
					col = scoredOnly(col)
				}
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
// spans while the reported plan, the search's best, carries them: the
// best is the plan its leaf scores to plus the schedule's spans,
// per-layer and per-lane statistics and its breakdown; every other
// feasible slot winner is exactly the plan its leaf scores to, and its
// leaf evaluated in full is that plan plus the same records.
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
	bi := s.best(nil)
	feasible := 0
	for i, sl := range s.slots {
		w := s.winners[i]
		if !w.Feasible {
			continue
		}
		feasible++
		var scratch worker
		scored := s.evaluate(&s.leaves[sl.win], &scratch, false)
		if scored.Timeline.Spans != nil || scored.Timeline.PerLayer != nil || scored.Breakdown != nil {
			t.Fatalf("slot %d: a scored leaf carries spans or a breakdown", i)
		}
		full := w
		if i != bi {
			if !reflect.DeepEqual(w, scored) {
				t.Fatalf("slot %d: non-best winner differs from its scored leaf\nreported %+v\nscored   %+v", i, w, scored)
			}
			full = s.evaluate(&s.leaves[sl.win], &scratch, true)
		}
		tl := full.Timeline
		if len(tl.Spans) == 0 || len(tl.PerLayer) != len(net.WeightedLayers()) || len(tl.PerResource) == 0 || full.Breakdown == nil {
			t.Fatalf("slot %d (%v S=%d best=%v): full plan lacks spans, statistics or breakdown", i, w.Grid, w.Stages, i == bi)
		}
		if !reflect.DeepEqual(scoredOnly(full), scored) {
			t.Fatalf("slot %d: full plan differs from its scored leaf beyond the spans and breakdown\nfull   %+v\nscored %+v", i, full, scored)
		}
	}
	if feasible < 2 {
		t.Fatalf("only %d feasible slots; the test needs several", feasible)
	}
}

// TestOneChunkSearchComputesNoBounds pins the one-chunk rule at its
// boundary. A search of boundChunk leaves evaluates them all against the
// +Inf incumbent, so it computes no bounds, and its Result equals the
// same search with bounds off at every worker count. One leaf more, and
// every leaf has its bound: > 0 when it fits, 0 when it fails a
// structural constraint.
func TestOneChunkSearchComputesNoBounds(t *testing.T) {
	net := nn.AlexNet()
	const B = 2048
	// Flat closed-form searches have one leaf per factorization of P:
	// 120 has 16 divisors and 2^16 has 17.
	for _, tc := range []struct{ P, leaves int }{{120, boundChunk}, {1 << 16, boundChunk + 1}} {
		o := DefaultOptions()
		o.Mode = Uniform
		s := newSearch(net, B, tc.P, o, true)
		var st SearchStats
		s.enumerate(&st)
		s.run(&st)
		if len(s.leaves) != tc.leaves {
			t.Fatalf("P=%d: %d leaves, want %d", tc.P, len(s.leaves), tc.leaves)
		}
		if tc.leaves <= boundChunk {
			if s.lbs != nil {
				t.Fatalf("P=%d: a one-chunk search computed bounds %v", tc.P, s.lbs)
			}
			off := o
			off.DisableBounds = true
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				o.Workers, off.Workers = w, w
				on, err1 := Optimize(net, B, tc.P, o)
				ref, err2 := Optimize(net, B, tc.P, off)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				on.Stats, ref.Stats = on.Stats.ZeroTimes(), ref.Stats.ZeroTimes()
				if !reflect.DeepEqual(on, ref) {
					t.Fatalf("P=%d workers=%d: the one-chunk Result differs from the unbounded search", tc.P, w)
				}
			}
			continue
		}
		if len(s.lbs) != len(s.leaves) {
			t.Fatalf("P=%d: %d bounds for %d leaves", tc.P, len(s.lbs), len(s.leaves))
		}
		misfits := 0
		for i := range s.leaves {
			lf, lb := &s.leaves[i], s.lbs[i]
			if fit := s.misfit(lf) == fits; fit && !(lb > 0) || !fit && lb != 0 {
				t.Fatalf("P=%d grid %v (fits=%v): bound %g", tc.P, lf.g, fit, lb)
			} else if !fit {
				misfits++
			}
		}
		if misfits == 0 || misfits == len(s.leaves) {
			t.Fatalf("P=%d: %d of %d leaves misfit; the test needs both kinds", tc.P, misfits, len(s.leaves))
		}
	}
}
