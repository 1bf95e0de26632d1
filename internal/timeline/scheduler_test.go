package timeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// simulateReference is the original O(n²) scheduler (full rescan with a
// per-candidate dependency re-check every round), kept as the behavioral
// oracle for the heap scheduler: same greedy rule, same tie-breaks.
func simulateReference(events []Event) ([]Span, error) {
	end := make([]float64, len(events))
	scheduled := make([]bool, len(events))
	free := map[Resource]float64{}
	spans := make([]Span, 0, len(events))

	for len(spans) < len(events) {
		best := -1
		var bestStart, bestReady float64
		for i := range events {
			if scheduled[i] {
				continue
			}
			ready := 0.0
			ok := true
			for _, d := range events[i].Deps {
				if !scheduled[d] {
					ok = false
					break
				}
				if end[d] > ready {
					ready = end[d]
				}
			}
			if !ok {
				continue
			}
			start := math.Max(ready, free[events[i].Resource])
			if best == -1 || start < bestStart ||
				(start == bestStart && ready < bestReady) {
				best, bestStart, bestReady = i, start, ready
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("timeline: dependency cycle among %d unscheduled events", len(events)-len(spans))
		}
		e := events[best]
		scheduled[best] = true
		end[best] = bestStart + e.Duration
		free[e.Resource] = end[best]
		spans = append(spans, Span{Event: e, Start: bestStart, End: end[best]})
	}
	return spans, nil
}

// randomLayers builds a random but valid layer list, optionally with
// per-level splits.
func randomLayers(rng *rand.Rand, n int, split bool) []Layer {
	layers := make([]Layer, n)
	d := func() float64 {
		if rng.Intn(4) == 0 {
			return 0 // exercise the zero-duration handle forwarding
		}
		return rng.Float64()
	}
	for i := range layers {
		layers[i] = Layer{
			Name:    fmt.Sprintf("l%d", i),
			FwdComp: d(), BwdComp: d(),
			AllGather: d(), FwdHalo: d(), ActReduce: d(), GradReduce: d(), BwdHalo: d(),
		}
		if split {
			depth := 2 + rng.Intn(MaxNetworkLevels-1)
			lv := &LayerLevels{}
			for _, k := range []Kind{AllGather, FwdHalo, ActReduce, GradReduce, BwdHalo} {
				flat := layers[i].commDur(k)
				// Random non-negative split that sums back to flat exactly:
				// the last level takes the remainder.
				lc := make([]float64, depth)
				rest := flat
				for l := 0; l < depth-1; l++ {
					lc[l] = rest * rng.Float64()
					rest -= lc[l]
				}
				lc[depth-1] = rest
				switch k {
				case AllGather:
					lv.AllGather = lc
				case FwdHalo:
					lv.FwdHalo = lc
				case ActReduce:
					lv.ActReduce = lc
				case GradReduce:
					lv.GradReduce = lc
				case BwdHalo:
					lv.BwdHalo = lc
				}
			}
			layers[i].Levels = lv
		}
	}
	return layers
}

// The heap scheduler must reproduce the quadratic reference scheduler
// byte for byte — same spans, same order, same floats — on the event
// graphs of every policy, flat and split, across many random inputs.
func TestHeapSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		split := trial%3 == 0
		layers := randomLayers(rng, n, split)
		for _, pol := range []Policy{PolicyNone, PolicyBackprop, PolicyFull} {
			events := buildEvents(layers, pol)
			got, err := Simulate(events)
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			want, err := simulateReference(events)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d policy %v (split=%v): heap schedule diverges from reference\ngot  %+v\nwant %+v",
					trial, pol, split, got, want)
			}
		}
	}
}

// The golden hand-checked schedules of timeline_test.go must also hold
// for the reference scheduler — i.e. the oracle itself still encodes the
// documented greedy rule.
func TestReferenceSchedulerGolden(t *testing.T) {
	layers := []Layer{
		{Name: "l1", FwdComp: 1, AllGather: 2, BwdComp: 10},
		{Name: "l2", FwdComp: 1, AllGather: 2, BwdComp: 10},
	}
	spans, err := simulateReference(buildEvents(layers, PolicyBackprop))
	if err != nil {
		t.Fatal(err)
	}
	makespan := 0.0
	for _, s := range spans {
		if s.End > makespan {
			makespan = s.End
		}
	}
	if math.Abs(makespan-26) > 1e-12 {
		t.Fatalf("reference makespan = %g, want 26", makespan)
	}
}

func TestSimulateRejectsBadGraphs(t *testing.T) {
	if _, err := Simulate([]Event{{Deps: []int{3}}}); err == nil {
		t.Fatal("unknown dependency must error")
	}
	// A 2-cycle must be detected, not deadlock.
	events := []Event{
		{Resource: Compute, Duration: 1, Deps: []int{1}},
		{Resource: Compute, Duration: 1, Deps: []int{0}},
	}
	if _, err := Simulate(events); err == nil {
		t.Fatal("cycle must error")
	}
}

// BenchmarkSimulate schedules one iteration of a deep (ResNet-scale ×10)
// network — the satellite perf target: the old scheduler was O(n²) with
// a full dependency re-check per candidate, the heap scheduler is
// O(n log n).
func BenchmarkSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layers := randomLayers(rng, 2000, false)
	events := buildEvents(layers, PolicyBackprop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layers := randomLayers(rng, 2000, true)
	events := buildEvents(layers, PolicyBackprop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(events); err != nil {
			b.Fatal(err)
		}
	}
}
