package dnnparallel

import "testing"

// BenchmarkPlanScenario times the full public façade on the paper's
// headline scenario: normalize + validate + resolve + the Pr × Pc search.
// This is the per-request cost a dnnserve cache miss pays, seeding the
// BENCH trajectory for the planning service.
func BenchmarkPlanScenario(b *testing.B) {
	sc := DefaultScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Plan(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Best.IterSeconds, "plan_iter_s")
		}
	}
}

// BenchmarkPlanScenarioTwoLevel prices the same search against the
// two-level Cori topology: the hierarchical recursion plus the
// placement search (row- and col-major) on top of the flat benchmark,
// so the refactor's cost on the hot loop is recorded, not guessed.
func BenchmarkPlanScenarioTwoLevel(b *testing.B) {
	sc := New("alexnet", 2048, 512, WithTopology(32, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanScenarioThreeLevel deepens the hierarchy to three link
// levels (node/rack/spine with a bandwidth taper): the marginal cost of
// one more recursion level per collective.
func BenchmarkPlanScenarioThreeLevel(b *testing.B) {
	sc := New("alexnet", 2048, 512, WithLevels(
		LevelSpec{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		LevelSpec{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
		LevelSpec{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanScenarioResNet50ThreeLevel is the three-level search on
// a repeated-block network: ResNet50Proxy's 50 weighted layers fall into
// 18 layer classes, each priced once per grid, placement and rank block
// (the AlexNet benchmarks' 8 layers are pairwise distinct).
func BenchmarkPlanScenarioResNet50ThreeLevel(b *testing.B) {
	sc := New("resnet50", 1024, 128, WithLevels(
		LevelSpec{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		LevelSpec{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
		LevelSpec{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanScenarioTimelineThreeLevel scores the three-level search
// with the timeline simulator under the backprop policy: every leaf is
// an M = 1, S = 1 timeline leaf on a leveled topology, priced by
// costmodel.Env.PriceStages and scheduled by timeline.Score.
func BenchmarkPlanScenarioTimelineThreeLevel(b *testing.B) {
	sc := New("alexnet", 2048, 512, WithTimeline(PolicyBackprop), WithLevels(
		LevelSpec{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		LevelSpec{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
		LevelSpec{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanScenarioPipeline adds the expensive dimensions — timeline
// scoring and a micro-batch search — the worst realistic /v1/plan miss.
func BenchmarkPlanScenarioPipeline(b *testing.B) {
	sc := New("alexnet", 2048, 512,
		WithTimeline(PolicyBackprop),
		WithMicroBatches(ScheduleOneFOneB, 1, 2, 4, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanScenarioStages adds the stage-partition dimensions on
// top of the pipeline search: S = 2 stages, per-stage grids of P/2
// ranks, and the layer-cut co-search (7 two-stage partitions of
// AlexNet's 8 weighted layers per grid).
func BenchmarkPlanScenarioStages(b *testing.B) {
	sc := stagedScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// stagedScenario is the staged AlexNet search both A/B benchmarks
// below share: the heaviest realistic /v1/plan miss (timeline scoring,
// micro-batch search, S = 2 stage partitions) and the space where the
// branch-and-bound lower bounds prune hardest.
func stagedScenario() Scenario {
	return New("alexnet", 2048, 512,
		WithTimeline(PolicyBackprop),
		WithMicroBatches(ScheduleOneFOneB, 1, 2, 4, 8),
		WithStages(2))
}

// BenchmarkPlanScenarioParallel is the B side of the search-engine A/B:
// the staged search under the parallel engine with bounds on and
// Workers unset, so `-cpu 1,2,4` sweeps the worker count (the engine
// defaults workers to GOMAXPROCS). Compare against
// BenchmarkPlanScenarioSerialBaseline — the result is bit-identical.
func BenchmarkPlanScenarioParallel(b *testing.B) {
	sc := stagedScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanScenarioSerialBaseline is the A side: the same staged
// search forced onto one worker with branch-and-bound disabled —
// the pre-engine exhaustive behavior, every candidate priced serially.
func BenchmarkPlanScenarioSerialBaseline(b *testing.B) {
	sc := stagedScenario()
	sc.Search = &SearchSpec{Workers: 1, Bounds: boolPtr(false)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func boolPtr(v bool) *bool { return &v }

// ttaScenario is the campaign search the tta A/B benchmarks share: the
// golden alexnet-tta question — AlexNet P=512, base batch 512, seven
// candidate batch sizes spanning the three convergence regimes, the
// network's preset curve.
func ttaScenario() Scenario {
	return New("alexnet", 512, 512,
		WithBatchSizes(256, 512, 1024, 2048, 4096, 8192, 16384))
}

// BenchmarkPlanScenarioTTA is the B side of the objective A/B: the
// time-to-accuracy campaign search, whose batch-size dimension
// multiplies the grid sweep by 7 but is cut back by the per-B lower
// bound S(B) × computeFloor(B).
func BenchmarkPlanScenarioTTA(b *testing.B) {
	sc := ttaScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Plan(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Best.TimeToAccuracySeconds, "plan_tta_s")
		}
	}
}

// BenchmarkPlanScenarioTTAIterBaseline is the A side: the identical
// scenario under the default iteration objective (batch fixed at the
// base 512). Interleaved with the B side by scripts/bench.sh, the pair
// yields the tta_search_overhead record in BENCH_plan.json — and this
// side is the pre-existing hot path, which must not regress.
func BenchmarkPlanScenarioTTAIterBaseline(b *testing.B) {
	sc := New("alexnet", 512, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioCanonical times the cache-key path alone: the
// dnnserve per-request fixed cost even on a hit.
func BenchmarkScenarioCanonical(b *testing.B) {
	sc := DefaultScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Canonical(); err != nil {
			b.Fatal(err)
		}
	}
}
