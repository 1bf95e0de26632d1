package planner

import (
	"reflect"
	"runtime"
	"testing"

	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// misalignedRacks is rackTaper with 24-rank nodes in 96-rank racks:
// every S = 2 or 4 stage block of P = 256 after the first starts
// mid-node and mid-rack.
func misalignedRacks() machine.Topology {
	t := rackTaper()
	t.Levels = append([]machine.Level(nil), t.Levels...)
	t.Levels[0].GroupSize, t.Levels[1].GroupSize = 24, 96
	return t
}

// TestSpanMemoParity: the per-search level-span and gradient-price memo
// is invisible in the result. On hierarchical Auto searches — two and
// three levels, an Eq. 6 redistribution sweep, a micro-batch pipeline
// sweep, a staged co-search whose second stage starts mid-node (24-rank
// nodes, 128-rank stage blocks), and a three-level staged co-search
// whose stage blocks start mid-node and mid-rack (S = 2, 4 at P = 256),
// plus the fixed conv-batch and conv-domain modes there —
// Optimize with the memo returns exactly the Result of classifying and
// pricing every candidate afresh, for any worker count. Run under -race
// this also checks that the workers only read the memo.
func TestSpanMemoParity(t *testing.T) {
	twoLevel := DefaultOptions()
	twoLevel.Topology = machine.CoriKNLNodes(16)

	threeLevel := DefaultOptions()
	threeLevel.Topology = rackTaper()

	redist := DefaultOptions()
	redist.Topology = machine.CoriKNLNodes(16)
	redist.AddRedistribution = true

	piped := DefaultOptions()
	piped.Topology = rackTaper()
	piped.UseTimeline = true
	piped.TimelinePolicy = timeline.PolicyBackprop
	piped.MicroBatches = []int{1, 2, 4}
	piped.Schedule = timeline.OneFOneB

	staged := DefaultOptions()
	staged.Topology = machine.CoriKNLNodes(24)
	staged.UseTimeline = true
	staged.TimelinePolicy = timeline.PolicyBackprop
	staged.StageCounts = []int{1, 2}
	staged.MicroBatches = []int{1, 2}
	staged.Schedule = timeline.OneFOneB
	staged.AddRedistribution = true
	staged.DisableBounds = true // price every S=2 candidate, not just the winner's slot

	staged3 := DefaultOptions()
	staged3.Topology = misalignedRacks()
	staged3.UseTimeline = true
	staged3.TimelinePolicy = timeline.PolicyBackprop
	staged3.StageCounts = []int{1, 2, 4}
	staged3.MaxPartitions = 3
	staged3.MicroBatches = []int{1, 4}
	staged3.Schedule = timeline.OneFOneB
	staged3.DisableBounds = true

	convBatch, convDomain := staged3, staged3
	convBatch.Mode = ConvBatch
	convDomain.Mode = ConvDomain

	scenarios := []struct {
		name string
		B, P int
		opts Options
	}{
		{"2level", 2048, 512, twoLevel},
		{"3level", 2048, 512, threeLevel},
		{"redistribution", 1024, 256, redist},
		{"pipelined", 2048, 256, piped},
		{"staged", 2048, 256, staged},
		{"staged-3level", 1024, 256, staged3},
		{"staged-3level-conv-batch", 1024, 256, convBatch},
		{"staged-3level-conv-domain", 1024, 256, convDomain},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			opts := sc.opts
			opts.Workers = 1
			fresh, err := optimize(nn.AlexNet(), sc.B, sc.P, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Stats = fresh.Stats.ZeroTimes()
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				opts.Workers = w
				got, err := Optimize(nn.AlexNet(), sc.B, sc.P, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got.Stats = got.Stats.ZeroTimes()
				if !reflect.DeepEqual(fresh, got) {
					t.Fatalf("workers=%d: memoized Result differs from fresh classification\n  fresh: %v\n  memo:  %v",
						w, fresh.Best, got.Best)
				}
			}
		})
	}
}

// tableAllocs returns the allocations the span table adds to one
// enumeration of the search for net at batch B on P processes: those of
// an enumeration that fills and seals the table less those of one
// without it.
func tableAllocs(net *nn.Network, B, P int, opts Options) float64 {
	enumerate := func(memo bool) float64 {
		return testing.AllocsPerRun(20, func() {
			var st SearchStats
			newSearch(net, B, P, opts, memo).enumerate(&st)
		})
	}
	return enumerate(true) - enumerate(false)
}

// TestSpanTableAllocations: filling and sealing the span table of a
// P = 128 three-level ResNet50 search makes a small fixed number of
// allocations — its arenas, not one per grid, entry or leaf: P = 32 and
// 64, three stage counts and a micro-batch sweep make exactly as many.
func TestSpanTableAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	net := nn.ResNet50Proxy()
	opts := DefaultOptions()
	opts.Topology = rackTaper()
	base := tableAllocs(net, 512, 128, opts)
	t.Logf("P=128 table: %v allocations", base)
	if base < 1 || base > 12 {
		t.Fatalf("filling the P=128 table makes %v allocations, want 1 to 12", base)
	}
	staged := opts
	staged.UseTimeline = true
	staged.StageCounts = []int{1, 2, 4}
	staged.MicroBatches = []int{1, 2, 4}
	staged.Schedule = timeline.OneFOneB
	for _, c := range []struct {
		name string
		P    int
		opts Options
	}{{"P=32", 32, opts}, {"P=64", 64, opts}, {"P=128 staged", 128, staged}} {
		if got := tableAllocs(net, 512, c.P, c.opts); got != base {
			t.Fatalf("%s: filling the table makes %v allocations, P=128 makes %v", c.name, got, base)
		}
	}
}
