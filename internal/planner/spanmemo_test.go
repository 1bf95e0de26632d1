package planner

import (
	"reflect"
	"runtime"
	"testing"

	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

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

	// 24-rank nodes in 96-rank racks: every S = 2 or 4 stage block of
	// P = 256 after the first starts mid-node and mid-rack.
	misaligned := rackTaper()
	misaligned.Levels = append([]machine.Level(nil), misaligned.Levels...)
	misaligned.Levels[0].GroupSize, misaligned.Levels[1].GroupSize = 24, 96
	staged3 := DefaultOptions()
	staged3.Topology = misaligned
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
