package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"dnnparallel"
	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/scenario"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// ladderReps is how many times each rung is called per input; a rung's
// metric is the median over all its calls.
const ladderReps = 3

// ladder times each layer's public functions from outside, on the
// workload's distinct /v1/plan inputs (for the layers below the
// planner, on each input's winning configuration), and the serve layer
// by replaying the op sequence through the handler. Every call is a
// span under one "ladder" root per input.
type ladder struct {
	r       *runner
	tr      *tracer
	samples map[string][]float64
	root    int
	op      int
	// est accumulates, over inputs, each rung's per-call cost × the
	// number of calls the search made to it (ms), against Σ optimize.
	est      map[string]float64
	optimize float64
}

// time calls f ladderReps times as span name, records the calls in
// metric (scaled to the metric's unit) and returns the median duration.
func (l *ladder) time(name, metric string, unit time.Duration, f func()) time.Duration {
	ds := make([]time.Duration, ladderReps)
	for k := range ds {
		sp := l.tr.begin(name, l.root, l.op)
		t0 := time.Now()
		f()
		ds[k] = time.Since(t0)
		l.tr.end(sp)
		l.samples[metric] = append(l.samples[metric], float64(ds[k])/float64(unit))
	}
	return durMedian(ds)
}

// allocKB is the KB f allocates.
func allocKB(f func()) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a0 := m.TotalAlloc
	f()
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-a0) / 1024
}

func (r *runner) ladder(tr *tracer, out io.Writer) map[string]metric {
	l := &ladder{r: r, tr: tr, samples: map[string][]float64{}, est: map[string]float64{}}
	var cand, priced, bounded, sims int
	for i, in := range r.w.inputs {
		if in.path != "/v1/plan" || in.status != http.StatusOK || in.canon != i {
			continue
		}
		l.root, l.op = tr.begin("ladder", -1, i), i
		st := l.input(i)
		tr.end(l.root)
		cand += st.Candidates
		priced += st.Priced
		bounded += st.Bounded
		sims += st.TimelineSimulated
	}
	m := map[string]metric{
		"planner.candidates":    {float64(cand), "count"},
		"planner.priced":        {float64(priced), "count"},
		"planner.bounded_ratio": {float64(bounded) / float64(cand), "ratio"},
		"planner.timeline_sims": {float64(sims), "count"},
	}
	l.serve(m)
	for _, lm := range layerMap {
		if xs, ok := l.samples[lm.name]; ok {
			m[lm.name] = metric{median(xs), lm.unit}
		}
	}
	m["ladder.residual_pct"] = metric{100 * (l.optimize - l.explained()) / l.optimize, "%"}
	l.printShares(out)
	return m
}

// topology is the pricing topology a resolved scenario's search uses.
func topology(o planner.Options) machine.Topology {
	if o.Topology.IsZero() {
		return machine.Flat(o.Machine)
	}
	return o.Topology
}

// input runs every rung on input i and cross-checks the replayed layers
// against the winner the search reported.
func (l *ladder) input(i int) planner.SearchStats {
	r, body := l.r, l.r.w.inputs[i].body
	var sc dnnparallel.Scenario
	var err error
	l.time("scenario.decode", "scenario.decode_us", time.Microsecond, func() { sc, err = dnnparallel.DecodeScenario(body) })
	if err != nil {
		r.fail("ladder input %d: %v", i, err)
		return planner.SearchStats{}
	}
	l.time("scenario.canonical", "scenario.canonical_us", time.Microsecond, func() { _, err = sc.Canonical() })
	var rs scenario.Resolved
	resolve := l.time("scenario.resolve", "scenario.resolve_us", time.Microsecond, func() { rs, err = sc.Resolve() })
	var res *dnnparallel.PlanResult
	var perr error
	plan := l.time("dnnparallel.plan", "dnnparallel.plan_ms", time.Millisecond, func() { res, perr = dnnparallel.Plan(sc) })
	var opt planner.Result
	var oerr error
	var stats []planner.SearchStats
	optimize := l.time("planner.optimize", "planner.optimize_ms", time.Millisecond, func() {
		opt, oerr = planner.Optimize(rs.Net, rs.Batch, rs.Procs, rs.Options)
		stats = append(stats, opt.Stats)
	})
	r.attempted++
	if err != nil || perr != nil || oerr != nil {
		r.fail("ladder input %d: resolve %v, plan %v, optimize %v", i, err, perr, oerr)
		return planner.SearchStats{}
	}
	if a := summaryAnswer(&res.Best, opt.Best.IterSeconds); a != r.cold[i] || !opt.Stats.Reconciles() {
		r.fail("ladder input %d: Optimize gave %v, want %v", i, a, r.cold[i])
	}
	l.samples["dnnparallel.self_us"] = append(l.samples["dnnparallel.self_us"], float64(plan-resolve-optimize)/1e3)
	sp := l.tr.begin("planner.optimize_alloc", l.root, l.op)
	l.samples["planner.optimize_alloc_kb"] = append(l.samples["planner.optimize_alloc_kb"],
		allocKB(func() { _, _ = planner.Optimize(rs.Net, rs.Batch, rs.Procs, rs.Options) }))
	l.tr.end(sp)
	for _, s := range stats {
		l.samples["planner.enumerate_ms"] = append(l.samples["planner.enumerate_ms"], 1e3*s.EnumerateSeconds)
		l.samples["planner.price_ms"] = append(l.samples["planner.price_ms"], 1e3*s.PriceSeconds)
		l.samples["planner.simulate_ms"] = append(l.samples["planner.simulate_ms"], 1e3*s.SimulateSeconds)
	}
	var data []byte
	l.time("render.json", "render.json_us", time.Microsecond, func() { data, _ = json.Marshal(res) })
	l.samples["render.kb"] = append(l.samples["render.kb"], float64(len(data))/1024)

	l.winner(i, rs, opt, ms(optimize))
	return opt.Stats
}

// winner times the layers below the planner on the search's winning
// configuration and estimates each rung's share of the search from the
// search's own counts.
func (l *ladder) winner(i int, rs scenario.Resolved, opt planner.Result, optimizeMS float64) {
	r, best, opts, net := l.r, opt.Best, rs.Options, rs.Net
	topo := topology(opts)
	env := costmodel.Env{Topo: topo, Placement: best.Placement}
	g, M, S := best.Grid, max(best.MicroBatch, 1), max(best.Stages, 1)
	bm := best.Batch / M
	st := opt.Stats
	check := func(what string, got, want float64) {
		r.attempted++
		if math.Float64bits(got) != math.Float64bits(want) {
			r.fail("ladder input %d: %s %v, search reported %v", i, what, got, want)
		}
	}

	leafOpts := opts
	leafOpts.MicroBatches = []int{M}
	var leaf planner.Plan
	leafT := l.time("planner.leaf", "planner.leaf_us", time.Microsecond, func() {
		leaf = planner.EvaluateAt(net, best.Batch, g, best.Placement, leafOpts)
	})
	if S == 1 {
		check("EvaluateAt iter seconds", leaf.IterSeconds, best.IterSeconds)
	}

	sizes := topo.GroupSizes()
	var col []grid.LevelSpan
	spans := func() {
		col = g.ColGroupSpansAt(sizes, best.Placement, 0)
		_ = g.RowGroupSpansAt(sizes, best.Placement, 0)
	}
	spansT := l.time("grid.spans", "grid.spans_us", time.Microsecond, spans)
	l.samples["grid.spans_alloc_kb"] = append(l.samples["grid.spans_alloc_kb"], allocKB(spans))

	words := float64(net.TotalWeights())
	l.time("collective.allreduce", "collective.allreduce_us", time.Microsecond, func() {
		collective.MaxCost(col, func(s grid.LevelSpan) collective.Cost { return collective.AllReduceTopo(s, words, topo) })
	})

	var bd *costmodel.Breakdown
	integratedT := l.time("costmodel.integrated", "costmodel.integrated_us", time.Microsecond, func() {
		bd = env.FullIntegrated(net, bm, g, best.Assignment)
	})
	if S == 1 && M == 1 {
		check("FullIntegrated comm seconds", bd.TotalSeconds(), best.CommSeconds)
	}

	L := len(net.WeightedLayers())
	part := stage.Balanced(L, 1)
	if S > 1 {
		var err error
		if part, err = stage.FromCuts(best.Partition, L); err != nil {
			r.fail("ladder input %d: winner partition: %v", i, err)
			return
		}
	}
	grids := make([]grid.Grid, S)
	for k := range grids {
		grids[k] = g
	}
	var sp costmodel.StagePipelineCost
	var serr error
	l.time("costmodel.stage", "costmodel.stage_us", time.Microsecond, func() {
		sp, serr = env.StageIteration(net, best.Batch, part, grids, best.Assignment, opts.Compute,
			opts.TimelinePolicy, timeline.Schedule{Shape: opts.Schedule, MicroBatches: M})
	})
	if serr != nil {
		r.fail("ladder input %d: StageIteration: %v", i, serr)
	} else if S > 1 {
		check("StageIteration iter seconds", sp.IterSeconds(), best.IterSeconds)
	}

	var times []compute.LayerTime
	layerT := l.time("compute.layer_times", "compute.layer_times_us", time.Microsecond, func() {
		times, _ = opts.Compute.GridLayerTimes(net, bm, g)
	})
	var terr error
	simT := l.time("timeline.simulate", "timeline.simulate_us", time.Microsecond, func() {
		_, terr = timeline.SimulatePipeline(costmodel.TimelineLayers(bd, times), opts.TimelinePolicy,
			timeline.Schedule{Shape: opts.Schedule, MicroBatches: M, Stages: 1})
	})
	if terr != nil {
		r.fail("ladder input %d: SimulatePipeline: %v", i, terr)
	}
	costs := make([]float64, L)
	for k, li := range net.WeightedLayers() {
		costs[k] = net.Layers[li].TrainFLOPsPerSample()
	}
	limit := opts.MaxPartitions
	if limit <= 0 {
		limit = 64 // the planner's default cap
	}
	enumT := l.time("stage.enumerate", "stage.enumerate_us", time.Microsecond, func() {
		_ = stage.Enumerate(costs, max(S, 2), limit)
	})

	// Calls the search made to each rung. Under auto mode every priced
	// candidate prices three uniform assignments to choose per-layer
	// strategies, then the chosen one.
	pricings := st.Priced
	if opts.Mode == planner.Auto {
		pricings *= 4
	}
	spanCalls := pricings
	if topo.Uniform() {
		spanCalls = 0 // the flat fast path never classifies spans
	}
	enumCalls := 0
	if st.PartitionsEnumerated > 0 {
		enumCalls = 1
	}
	l.est["planner.leaf"] += ms(leafT) * float64(st.Priced)
	l.est["costmodel.integrated"] += ms(integratedT) * float64(pricings)
	l.est["grid.spans"] += ms(spansT) * float64(spanCalls)
	l.est["timeline.simulate"] += ms(simT) * float64(st.TimelineSimulated)
	l.est["compute.layer_times"] += ms(layerT) * float64(st.GridsEnumerated)
	l.est["stage.enumerate"] += ms(enumT) * float64(enumCalls)
	l.optimize += optimizeMS
}

// serve replays the workload through a fresh server's handler — every
// distinct input once, then one pass of the op sequence — timing each
// call by its X-Cache outcome, then sends the pass again to the same
// server over its loopback listener to price what HTTP adds to a hit.
func (l *ladder) serve(m map[string]metric) {
	r := l.r
	sd := newServeBackend(r.w)
	if err := sd.start(); err != nil {
		r.fail("ladder: %v", err)
		return
	}
	defer sd.stop()
	h := sd.srv.Handler()
	var hit, miss []time.Duration
	call := func(i int) {
		in := &r.w.inputs[i]
		req := httptest.NewRequest(http.MethodPost, in.path, bytes.NewReader(in.body))
		rec := httptest.NewRecorder()
		sp := l.tr.begin("serve.handler", l.root, i)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		l.tr.end(sp)
		sd.requests++
		res := result{ans: answer{status: rec.Code}}
		var err error
		if rec.Code == http.StatusOK {
			res.ans, err = wireAnswer(in.path, rec.Body.Bytes())
		}
		r.check(i, res, err)
		switch rec.Header().Get("X-Cache") {
		case "hit":
			hit = append(hit, d)
		case "miss":
			miss = append(miss, d)
		}
	}
	l.root, l.op = l.tr.begin("ladder", -1, -1), -1
	defer l.tr.end(l.root)
	for i := range r.w.inputs {
		call(i)
	}
	for _, i := range r.w.seq {
		call(i)
	}
	stats := sd.srv.Stats()
	r.checkIdentity(sd)

	var rtt []time.Duration
	for op, i := range r.w.seq {
		sp := l.tr.begin("http.roundtrip", l.root, i)
		res, err := sd.do(i, op, nil)
		l.tr.end(sp)
		r.check(i, res, err)
		if res.hit {
			rtt = append(rtt, res.lat)
		}
	}
	r.checkIdentity(sd)

	hitUS := us(durMedian(hit))
	m["serve.hit_us"] = metric{hitUS, "us"}
	m["serve.miss_ms"] = metric{ms(durMedian(miss)), "ms"}
	m["serve.hit_ratio"] = metric{float64(stats.Hits) / float64(stats.Hits+stats.Misses+stats.Coalesced), "ratio"}
	m["serve.evictions"] = metric{float64(stats.Evictions), "count"}
	m["http.overhead_us"] = metric{us(durMedian(rtt)) - hitUS, "us"}
}

// explained is the estimated ms of the search the top-level rungs
// account for (the nested ones are part of planner.leaf).
func (l *ladder) explained() float64 {
	return l.est["planner.leaf"] + l.est["compute.layer_times"] + l.est["stage.enumerate"]
}

func (l *ladder) printShares(w io.Writer) {
	fmt.Fprintf(w, "\nladder: estimated share of planner.optimize_ms (Σ %.3f ms over distinct inputs)\n", l.optimize)
	fmt.Fprintf(w, "  (per-call cost on each input's winner × the search's own call counts)\n")
	row := func(name, indent string) {
		fmt.Fprintf(w, "  %-30s %12.3f ms %7.1f%%\n", indent+name, l.est[name], 100*l.est[name]/l.optimize)
	}
	row("planner.leaf", "")
	row("costmodel.integrated", "  ")
	row("grid.spans", "    ")
	row("timeline.simulate", "  ")
	row("compute.layer_times", "")
	row("stage.enumerate", "")
	rest := l.optimize - l.explained()
	fmt.Fprintf(w, "  %-30s %12.3f ms %7.1f%%\n", "unexplained residual", rest, 100*rest/l.optimize)
}
