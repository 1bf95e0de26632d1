// Command perfbench is the planning-service benchmark: the time from
// scenario bytes to plan bytes, end to end and layer by layer.
//
// Run it from the repository root (run.sh builds it under .bench_build/):
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a readable report goes
// to standard error. BENCHMARK.json at the repository root lists the
// workloads (with why each was chosen and its tail percentile) and the
// metrics with their units and bounds.
//
// # Workloads
//
// Each workload is a closed loop with one client, because dnnserve's
// callers (the CLIs and scripts) wait for each reply. The seed generates
// the scenario bytes and the op order; the program only ever sees the
// bytes. The search shapes are fixed by the workload, so every seed
// costs about the same; the seed jitters machine constants, dataset
// sizes and spellings, which changes the answers.
//
//   - serve-mix: POST /v1/plan (and ~10% /v1/simulate) to
//     serve.New(serve.Config{}) on a 127.0.0.1 listener in this process,
//     over one keep-alive connection. 384 flat-machine keys with Zipf
//     popularity, three times the 128-entry cache, some sent in legacy
//     respellings that canonicalize onto the same key, and a few
//     infeasible scenarios that must answer 422. Most keys are the
//     paper's single-iteration search; a slice asks for time-to-accuracy
//     batch sweeps, timeline-scored micro-batch pipelines or S=2 stage
//     partitions, so their misses run those searches.
//   - plan-hier: DecodeScenario → Plan → json.Marshal over 2- and
//     3-level topologies at P = 32, 64 and 128, where rank-span
//     classification dominates.
//
// serve-mix does no span classification, so it is the control for
// changes to the hierarchical pricing; plan-hier does no HTTP, caching
// or timeline work, so it is the control for those.
//
// # Measurement
//
// GOMAXPROCS is 1, so the planner searches with one worker and the
// numbers are per-request work. setup_s is the median of seven cold
// set-ups, each timed from launching a fresh process of the benchmark
// (--setup-pass) until it has created the server (or made the first
// call) and answered every distinct input once, so package
// initialisation and any lazily built process-wide state are paid in
// every sample. The timed phase replays whole passes of the seed's
// fixed op sequence until --seconds have passed, so every position of
// the sequence is timed once per pass, from the same state each time;
// it pauses at seven evenly spaced points to run the set-up children,
// so they sample the whole run rather than its first seconds.
// An op's latency is the fastest of its repetitions: neighbours on a
// shared machine only add time, in bursts that last from seconds to
// minutes, and the fastest repetition is what the program itself
// costs. p50_ms and tail_ms are percentiles of these per-position
// latencies, ops_per_s is the pass length over their sum (ops per wall
// second, which includes
// the noise and the benchmark's own answer checking, is printed
// alongside), and cpu_ms_per_op is the sum over eight fixed chunks of a
// pass of each chunk's least process CPU time, divided by the pass
// length. alloc_kb_per_op is the TotalAlloc delta per op and
// live_heap_mb the heap left after a GC at the end. Every answer, the
// set-up children's included, is compared with the cold pass (winner
// grid, placement, micro-batch, stages, batch, and iteration seconds bit
// for bit), SearchStats must reconcile, and serve-mix must keep hits +
// misses + coalesced = requests; a mismatch counts as a failed op.
//
// # Traced run
//
// --trace 1 spends half of --seconds untraced and half with spans
// recorded around each call into a layer (trace.overhead_pct is the
// throughput difference), then runs the layer ladder: each layer's
// public functions timed from outside on the workload's inputs and on
// each input's winning configuration (ladder.go). layers.go maps every
// per-layer metric to the end-to-end metric it should move and the
// workloads predicted to show no change. The spans are written as a
// Chrome trace to .bench_build/trace/<workload>-seed<n>.json, which
// scripts/validatetrace.go accepts; the self time per layer and each
// rung's estimated share of planner.optimize_ms are printed.
//
// The package is its own module (go.mod replaces dnnparallel with the
// repository root), so the root go test ./... does not build it; run its
// tests with go -C perfbench test ./... from the repository root.
package main
