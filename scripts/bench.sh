#!/usr/bin/env sh
# Rerun the benchmark trajectory recorded in BENCH_plan.json: the
# planner-facing benchmarks (full search, pipeline search, scenario
# canonicalization) with 6 repetitions of 2s each — enough samples for
# benchstat to attach confidence intervals — plus the dnnserve cache
# benchmarks, plus the search-engine A/B: interleaved pairs of the
# serial exhaustive baseline (workers=1, bounds off) against the
# parallel pruned engine (bounds on) on the staged AlexNet search,
# alternating A and B each pair so machine drift cancels instead of
# biasing the comparison. The engine side also sweeps -cpu 1,2,4 so the
# worker scaling is recorded per GOMAXPROCS. A second interleaved A/B
# pits the iteration objective against the time-to-accuracy campaign
# search on the same scenario (the tta_search_overhead record). Last,
# the span_classification, fused_auto_pricing, unified_evaluator,
# layer_classes and in_place_collectives records: the flat, hierarchical
# (two- and three-level, AlexNet and ResNet50), pipelined and
# stage-partitioned façade searches plus the per-layer rungs
# BenchmarkColGroupSpansAt (grid), BenchmarkAllReduceTopoThreeLevel
# (collective) and BenchmarkAutoIntegratedResNet50ThreeLevel
# (costmodel), either on this tree alone or, given a
# baseline checkout (e.g. a `git archive` of the parent commit), as 10
# interleaved pairs of baseline and this tree, alternating which side
# runs first.
#
# Usage: scripts/bench.sh [output-file [baseline-dir]]   (default: bench.txt)
set -e
cd "$(dirname "$0")/.."
out="${1:-bench.txt}"
go test -run '^$' -bench 'BenchmarkPlanScenario|BenchmarkPlanScenarioPipeline|BenchmarkScenarioCanonical' \
	-benchmem -count=6 -benchtime=2s . | tee "$out"
go test -run '^$' -bench 'BenchmarkServePlan' -benchmem -count=3 ./internal/serve/ | tee -a "$out"
# Interleaved A/B: 6 pairs of (serial baseline, parallel engine), both
# swept over GOMAXPROCS so each comparison is same-scheduler-config.
i=1
while [ "$i" -le 6 ]; do
	go test -run '^$' -bench 'BenchmarkPlanScenarioSerialBaseline$' -cpu 1,4 -benchmem -benchtime=2s . | tee -a "$out"
	go test -run '^$' -bench 'BenchmarkPlanScenarioParallel$' -cpu 1,2,4 -benchmem -benchtime=2s . | tee -a "$out"
	i=$((i + 1))
done
# Interleaved A/B for the time-to-accuracy objective: pairs of (iteration
# baseline, tta campaign) on the same AlexNet P=512 question, feeding the
# tta_search_overhead record — the iteration side is the pre-existing hot
# path and must not regress.
i=1
while [ "$i" -le 6 ]; do
	go test -run '^$' -bench 'BenchmarkPlanScenarioTTAIterBaseline$' -benchmem -benchtime=2s . | tee -a "$out"
	go test -run '^$' -bench 'BenchmarkPlanScenarioTTA$' -benchmem -benchtime=2s . | tee -a "$out"
	i=$((i + 1))
done
# Span classification, fused Auto pricing, the unified evaluator, layer classes and
# in-place collectives (span_classification, fused_auto_pricing, unified_evaluator,
# layer_classes and in_place_collectives records). A per-layer rung a baseline
# tree predates simply prints no line for that side.
span='BenchmarkPlanScenario$|BenchmarkPlanScenarioTwoLevel$|BenchmarkPlanScenarioThreeLevel$|BenchmarkPlanScenarioResNet50ThreeLevel$|BenchmarkPlanScenarioPipeline$|BenchmarkPlanScenarioStages$'
rungs='grid:BenchmarkColGroupSpansAt$ collective:BenchmarkAllReduceTopoThreeLevel$ costmodel:BenchmarkAutoIntegratedResNet50ThreeLevel$'
if [ -z "${2:-}" ]; then
	go test -run '^$' -bench "$span" -benchmem -count=6 -benchtime=2s . | tee -a "$out"
	for r in $rungs; do
		go test -run '^$' -bench "${r#*:}" -benchmem -count=6 "./internal/${r%%:*}/" | tee -a "$out"
	done
else
	base=$(cd "$2" && pwd)
	bin=$(mktemp -d)
	for side in base change; do
		dir=.
		if [ "$side" = base ]; then dir=$base; fi
		(cd "$dir" && go test -c -o "$bin/${side}_root.test" . &&
			for r in $rungs; do go test -c -o "$bin/${side}_${r%%:*}.test" "./internal/${r%%:*}"; done)
	done
	i=1
	while [ "$i" -le 10 ]; do
		order="base change"
		if [ $((i % 2)) -eq 0 ]; then order="change base"; fi
		for side in $order; do
			echo "# pair $i $side" | tee -a "$out"
			"$bin/${side}_root.test" -test.run '^$' -test.bench "$span" -test.benchmem -test.benchtime=2s \
				-test.timeout 10m | tee -a "$out"
			for r in $rungs; do
				(cd "internal/${r%%:*}" && "$bin/${side}_${r%%:*}.test" -test.run '^$' -test.bench "${r#*:}" \
					-test.benchmem -test.timeout 10m) | tee -a "$out"
			done
		done
		i=$((i + 1))
	done
	rm -r "$bin"
fi
echo "wrote $out"
