// The compact event graph and its list scheduler: the one builder and
// the one scheduler every entry point (Score, SimulatePipeline,
// Simulate) runs on.
//
// An event is a plain record — layer, micro-batch, kind, lane, duration
// — plus a dependency range. Ranges (off, n) index one append-only
// []int32 arena shared by the whole graph, so a dependency handle costs
// no allocation: handing a handle on copies two integers, and a union
// appends the two ranges' contents to the arena (or, when they already
// sit back to back, is their concatenated range). Lanes are Resource
// values used as slice indices (numBaseResources·S of them for an
// S-stage schedule); each lane keeps a typed min-heap of ready event
// indices in its own segment of one buffer, and dependents are stored
// in CSR form. Every buffer lives in a pooled graph, so a warmed Score
// allocates only its Result.
package timeline

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// deps is a range of the graph's dependency arena.
type deps struct{ off, n int32 }

// node is one event of the compact graph.
type node struct {
	layer, micro int32
	lane         int32 // the event's Resource, used as a lane index
	kind         Kind
	dur          float64
	deps         deps
}

// graph is the reusable state of one build-and-schedule run. Nothing in
// it refers to caller memory, so a pooled graph is safe to hand to the
// next caller.
type graph struct {
	arena []int32
	nodes []node

	// Builder state.
	layers   []Layer
	policy   Policy
	sched    Schedule
	lastReal int32 // most recent real event, for PolicyNone serialization
	stage    []int32
	first    []int32 // per stage: its first layer
	last     []int32 // per stage: its last layer
	fwdDone  []deps  // [micro·L + layer] forward-compute handle
	agDone   []deps  // [micro·L + layer] all-gather handle
	bwdDone  []deps  // [micro·L + layer] backward-compute handle

	// Scheduler state.
	waiting []int32   // unscheduled dependency count per event
	ready   []float64 // max end over scheduled dependencies
	csrOff  []int32   // dependents of event i: csr[csrOff[i]:csrOff[i+1]]
	csr     []int32
	cursor  []int32
	heap    []int32 // lane l's heap is heap[laneOff[l] : laneOff[l]+laneLen[l]]
	laneOff []int32
	laneLen []int32
	laneCnt []int32 // events per lane
	used    []int32 // lanes with at least one event, ascending
	free    []float64
	busy    []float64 // per lane, summed in schedule order

	// Recorded schedule (spans only): event indices in schedule order and
	// each event's start and end.
	order      []int32
	start, end []float64
}

var graphPool = sync.Pool{New: func() any { return new(graph) }}

// grow returns s resized to n, reusing its backing array when it is
// large enough; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s resized to n with every element zero.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// one returns a handle on the single event id.
func (g *graph) one(id int32) deps {
	g.arena = append(g.arena, id)
	return deps{int32(len(g.arena) - 1), 1}
}

// union returns a handle on a's events followed by b's (duplicates
// kept, as dependency counts include them).
func (g *graph) union(a, b deps) deps {
	switch {
	case a.n == 0:
		return b
	case b.n == 0:
		return a
	case a.off+a.n == b.off:
		return deps{a.off, a.n + b.n}
	}
	off := int32(len(g.arena))
	g.arena = append(g.arena, g.arena[a.off:a.off+a.n]...)
	g.arena = append(g.arena, g.arena[b.off:b.off+b.n]...)
	return deps{off, a.n + b.n}
}

// lane returns pipeline stage st's copy of a base lane.
func lane(base Resource, st int32) int32 { return int32(base) + st*int32(numBaseResources) }

// add emits one event unless its duration is zero, in which case the
// step's handle is its own dependency handle: prerequisites forward
// transitively through skipped events instead of being dropped.
func (g *graph) add(micro, layer int, kind Kind, ln int32, dur float64, d deps) deps {
	if dur == 0 {
		return d
	}
	if g.policy == PolicyNone && g.lastReal >= 0 {
		d = g.union(d, g.one(g.lastReal))
	}
	id := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{layer: int32(layer), micro: int32(micro), lane: ln, kind: kind, dur: dur, deps: d})
	g.lastReal = id
	return g.one(id)
}

// xfer emits one inter-stage handoff on the receiving stage's link lane
// (the boundary's own level lane when the layer is priced
// hierarchically). It reports whether an event was emitted so callers
// leave dependency handles untouched for zero-duration handoffs —
// keeping partitioned schedules with free boundaries bit-identical to
// unpartitioned ones.
func (g *graph) xfer(micro, layer int, kind Kind, toStage int32, d deps) (deps, bool) {
	l := &g.layers[layer]
	dur := l.FwdXfer
	if kind == BwdXfer {
		dur = l.BwdXfer
	}
	if dur == 0 {
		return deps{}, false
	}
	base := Network
	if l.Levels != nil {
		base = networkLevel0 + Resource(l.XferLevel)
	}
	return g.add(micro, layer, kind, lane(base, toStage), dur, d), true
}

// comm emits one communication step: a single Network event on a flat
// layer, or a chain of per-level lane events when the layer carries a
// per-level split — each level's phase consumes the previous active
// level's result, so level i+1's event depends on level i's. The
// returned handle completes when the whole step does.
func (g *graph) comm(micro, layer int, kind Kind, d deps) deps {
	l := &g.layers[layer]
	st := g.stage[layer]
	if l.Levels == nil {
		return g.add(micro, layer, kind, lane(Network, st), l.commDur(kind), d)
	}
	cur := d
	var done deps
	for lvl, dur := range l.Levels.get(kind) {
		if dur == 0 {
			continue
		}
		ev := g.add(micro, layer, kind, lane(networkLevel0+Resource(lvl), st), dur, cur)
		done = g.union(done, ev)
		cur = g.union(d, ev)
	}
	if done.n == 0 {
		return d
	}
	return done
}

// build lays out M micro-batch passes over the layer graph, wiring each
// pass by the overlap policy and adding the pipeline edges described in
// schedule.go's file comment. Emission order matters for the handles
// each pass may reference: GPipe's backward flush edge needs the last
// micro-batch's forward handles (all forwards first), while 1F1B's stash
// edge needs earlier micro-batches' backward handles (alternate F_m,
// B_m). Both orders reduce to F_0, B_0 at M = 1 — one plain iteration.
func (g *graph) build(layers []Layer, policy Policy, sched Schedule) {
	L, M, S := len(layers), sched.MicroBatches, sched.Stages
	g.layers, g.policy, g.sched, g.lastReal = layers, policy, sched, -1
	g.arena, g.nodes = g.arena[:0], g.nodes[:0]
	g.stage = grow(g.stage, L)
	g.first, g.last = grow(g.first, S), grow(g.last, S)
	for k := range g.first {
		g.first[k] = -1
	}
	for i := range layers {
		k := int32(sched.stageOf(i, L))
		g.stage[i] = k
		if g.first[k] < 0 {
			g.first[k] = int32(i)
		}
		g.last[k] = int32(i)
	}
	g.fwdDone, g.agDone, g.bwdDone = grow(g.fwdDone, M*L), grow(g.agDone, M*L), grow(g.bwdDone, M*L)
	if sched.Shape == OneFOneB {
		for m := 0; m < M; m++ {
			g.forward(m)
			g.backward(m)
		}
	} else {
		for m := 0; m < M; m++ {
			g.forward(m)
		}
		for m := 0; m < M; m++ {
			g.backward(m)
		}
	}
	g.layers, g.sched = nil, Schedule{}
}

// forward lays out micro-batch m's forward pass: each layer's input halo
// and the previous layer's all-gather block its GEMM (except under
// PolicyFull).
func (g *graph) forward(m int) {
	L, S := len(g.layers), int32(g.sched.Stages)
	row := m * L
	for i := 0; i < L; i++ {
		st := g.stage[i]
		opens := int32(i) == g.first[st]
		var d deps
		if i > 0 {
			d = g.fwdDone[row+i-1]
			if g.policy != PolicyFull {
				d = g.union(d, g.agDone[row+i-1]) // all-gather blocks the next GEMM
			}
		}
		if g.sched.Shape == OneFOneB && opens {
			// Steady-state stash cap: stage s admits forward m only after
			// retiring backward m−(S−s).
			if k := int32(m) - (S - st); k >= 0 {
				d = g.union(d, g.bwdDone[int(k)*L+i])
			}
		}
		if opens && st > 0 {
			// Pipeline boundary: the layer's input activations arrive from
			// the previous stage. The handoff is a true data dependency —
			// it gates this layer's forward under every policy, unlike the
			// collectives PolicyFull un-blocks.
			if ev, ok := g.xfer(m, i, FwdXfer, st, d); ok {
				d = g.union(d, ev)
			}
		}
		halo := g.comm(m, i, FwdHalo, d)
		fd := d
		if g.policy != PolicyFull {
			fd = g.union(d, halo) // input halo blocks this GEMM
		}
		g.fwdDone[row+i] = g.add(m, i, FwdComp, lane(Compute, st), g.layers[i].FwdComp, fd)
		g.agDone[row+i] = g.comm(m, i, AllGather, g.fwdDone[row+i])
	}
}

// backward lays out micro-batch m's backward pass, last layer first.
// The ∆W all-reduce is deferred to the flush: gradients accumulate
// locally and the collective is issued once, streaming with the last
// micro-batch's backprop of the layer.
func (g *graph) backward(m int) {
	L, M := len(g.layers), g.sched.MicroBatches
	row := m * L
	var prev deps
	for i := L - 1; i >= 0; i-- {
		st := g.stage[i]
		var d deps
		if i < L-1 {
			d = prev
		} else {
			// The loss needs the micro-batch's last forward GEMM and
			// (except under PolicyFull) its gathered activations.
			d = g.fwdDone[row+L-1]
			if g.policy != PolicyFull {
				d = g.union(g.fwdDone[row+L-1], g.agDone[row+L-1])
			}
		}
		if M > 1 && g.sched.Shape == GPipe && int32(i) == g.last[st] {
			// Fill–drain: the stage's backward work starts only after the
			// stage flushed all M forwards.
			d = g.union(d, g.fwdDone[(M-1)*L+i])
		}
		bwd := g.add(m, i, BwdComp, lane(Compute, st), g.layers[i].BwdComp, d)
		// Backward communication is issued at the start of the layer's
		// backprop (gradient chunks stream out as they are produced) —
		// the per-layer form of the Fig. 8 idealization. Under PolicyNone
		// the add serialization reinstates strict order.
		cd := d
		if g.policy == PolicyNone {
			cd = bwd
		}
		g.comm(m, i, BwdHalo, cd)
		g.comm(m, i, ActReduce, cd)
		if m == M-1 {
			g.comm(m, i, GradReduce, cd)
		}
		prev = bwd
		if int32(i) == g.first[st] && st > 0 {
			// Pipeline boundary: ∆X returns to the previous stage. Like
			// the other backward communication it streams with the
			// producing backprop, but the downstream stage's next backprop
			// genuinely needs the received gradient, so the handoff joins
			// the backward chain handle.
			if ev, ok := g.xfer(m, i, BwdXfer, st-1, cd); ok {
				prev = g.union(bwd, ev)
			}
		}
		g.bwdDone[row+i] = bwd
	}
}

// less orders ready events within one lane by (ready time, index). An
// event's ready time is fixed before it is pushed, and within one lane
// that order is invariant under the lane's moving free time: comparing
// max(ready, free) with ties broken by ready then index gives the same
// order for every free — so a lane's heap top is always its best
// candidate under the scheduler's (start, ready, index) rule.
func (g *graph) less(a, b int32) bool {
	if ra, rb := g.ready[a], g.ready[b]; ra != rb {
		return ra < rb
	}
	return a < b
}

func (g *graph) push(ln, id int32) {
	h := g.heap[g.laneOff[ln]:]
	j := g.laneLen[ln]
	g.laneLen[ln]++
	h[j] = id
	for j > 0 {
		p := (j - 1) / 2
		if !g.less(h[j], h[p]) {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

func (g *graph) pop(ln int32) {
	h := g.heap[g.laneOff[ln]:]
	n := g.laneLen[ln] - 1
	g.laneLen[ln] = n
	h[0] = h[n]
	for j := int32(0); ; {
		c := 2*j + 1
		if c >= n {
			return
		}
		if c+1 < n && g.less(h[c+1], h[c]) {
			c++
		}
		if !g.less(h[c], h[j]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// schedule runs the greedy list scheduler over the graph's nodes on
// nLanes lanes: an event becomes ready when all its dependencies have
// completed, each lane runs one event at a time, and among ready events
// the one with the earliest possible start time wins (then earliest
// ready time, then lowest index). With r non-nil the aggregates are
// summed into r in schedule order — the lanes must then be Resource
// values. With record set the schedule is kept in g.order/start/end.
func (g *graph) schedule(nLanes int, r *Result, record bool) error {
	n := len(g.nodes)
	g.waiting = grow(g.waiting, n)
	g.ready = zeroed(g.ready, n)
	g.csrOff = zeroed(g.csrOff, n+1)
	g.laneCnt = zeroed(g.laneCnt, nLanes)
	for i := range g.nodes {
		nd := &g.nodes[i]
		g.waiting[i] = nd.deps.n
		for _, d := range g.arena[nd.deps.off : nd.deps.off+nd.deps.n] {
			g.csrOff[d+1]++
		}
		g.laneCnt[nd.lane]++
	}
	for i := 0; i < n; i++ {
		g.csrOff[i+1] += g.csrOff[i]
	}
	g.csr = grow(g.csr, int(g.csrOff[n]))
	g.cursor = grow(g.cursor, n)
	copy(g.cursor, g.csrOff[:n])
	for i := range g.nodes {
		nd := &g.nodes[i]
		for _, d := range g.arena[nd.deps.off : nd.deps.off+nd.deps.n] {
			g.csr[g.cursor[d]] = int32(i)
			g.cursor[d]++
		}
	}
	g.laneOff = grow(g.laneOff, nLanes)
	g.laneLen = zeroed(g.laneLen, nLanes)
	g.free = zeroed(g.free, nLanes)
	g.busy = zeroed(g.busy, nLanes)
	g.used = g.used[:0]
	off := int32(0)
	for ln, c := range g.laneCnt {
		g.laneOff[ln] = off
		off += c
		if c > 0 {
			g.used = append(g.used, int32(ln))
		}
	}
	g.heap = grow(g.heap, n)
	for i := range g.nodes {
		if g.waiting[i] == 0 {
			g.push(g.nodes[i].lane, int32(i))
		}
	}
	if record {
		g.order = g.order[:0]
		g.start, g.end = grow(g.start, n), grow(g.end, n)
	}

	lastComputeEnd := 0.0
	for done := 0; done < n; done++ {
		// The winner is the best heap top under (start, ready, index), a
		// total order, so the lane scan order does not matter.
		best, bestLane := int32(-1), int32(-1)
		var bestStart, bestReady float64
		for _, ln := range g.used {
			if g.laneLen[ln] == 0 {
				continue
			}
			i := g.heap[g.laneOff[ln]]
			ready := g.ready[i]
			start := ready
			if f := g.free[ln]; f > start {
				start = f
			}
			if best < 0 || start < bestStart ||
				(start == bestStart && (ready < bestReady || (ready == bestReady && i < best))) {
				best, bestLane, bestStart, bestReady = i, ln, start, ready
			}
		}
		if best < 0 {
			return fmt.Errorf("timeline: dependency cycle among %d unscheduled events", n-done)
		}
		g.pop(bestLane)
		nd := &g.nodes[best]
		end := bestStart + nd.dur
		g.free[bestLane] = end
		g.busy[bestLane] += nd.dur
		if r != nil {
			if end > r.Makespan {
				r.Makespan = end
			}
			if Resource(bestLane).Base() == Compute {
				r.ComputeSeconds += nd.dur
				if end > lastComputeEnd {
					lastComputeEnd = end
				}
			} else {
				// Every non-compute lane (Network, the per-level link lanes
				// and their per-stage copies) is communication.
				r.CommSeconds += nd.dur
			}
		}
		if record {
			g.order = append(g.order, best)
			g.start[best], g.end[best] = bestStart, end
		}
		for _, dep := range g.csr[g.csrOff[best]:g.csrOff[best+1]] {
			if g.ready[dep] < end {
				g.ready[dep] = end
			}
			if g.waiting[dep]--; g.waiting[dep] == 0 {
				g.push(g.nodes[dep].lane, dep)
			}
		}
	}
	if r != nil {
		r.finish(lastComputeEnd)
	}
	return nil
}

// finish derives the schedule-level accounting from the summed busy
// times, the makespan and the last compute end.
func (r *Result) finish(lastComputeEnd float64) {
	r.ExposedCommSeconds = r.Makespan - r.ComputeSeconds
	if r.ExposedCommSeconds < 0 {
		// Float noise on one stage; genuinely concurrent pipes beyond it.
		r.ExposedCommSeconds = 0
	}
	r.DrainSeconds = r.Makespan - lastComputeEnd
	if r.DrainSeconds < 0 {
		r.DrainSeconds = 0
	}
	// The bubble sums every stage pipe's idle time — including pipes with
	// no scheduled work at all (a stage whose layers have zero compute is
	// idle for the whole window).
	stages := float64(r.Stages)
	r.BubbleSeconds = stages*r.Makespan - r.ComputeSeconds
	if r.BubbleSeconds < 0 {
		r.BubbleSeconds = 0
	}
	if r.Makespan > 0 && r.Stages > 0 {
		r.BubbleFraction = r.BubbleSeconds / (stages * r.Makespan)
	}
}

// Score simulates the schedule like SimulatePipeline and returns only
// its aggregates — Makespan, the compute/communication/exposed/drain
// seconds and the bubble — with no Spans, PerLayer or PerResource. The
// aggregates are bit-identical to SimulatePipeline's: both sum them in
// schedule order during the same run. It is the planner's per-candidate
// scorer; a warmed call allocates only the Result.
func Score(layers []Layer, policy Policy, sched Schedule) (*Result, error) {
	return simulate(layers, policy, sched, false)
}

// SimulatePipeline builds the multi-iteration event graph for the given
// overlap policy and schedule and runs it, recording every span and the
// per-layer and per-lane statistics. Layer durations are
// per-micro-batch; negative or NaN durations panic, an invalid schedule
// returns an error, and an empty layer list returns a zero Result.
// Single() simulates one plain iteration.
func SimulatePipeline(layers []Layer, policy Policy, sched Schedule) (*Result, error) {
	return simulate(layers, policy, sched, true)
}

func simulate(layers []Layer, policy Policy, sched Schedule, spans bool) (*Result, error) {
	if err := sched.Validate(len(layers)); err != nil {
		return nil, err
	}
	r := &Result{Policy: policy, MicroBatches: sched.MicroBatches, Stages: sched.Stages}
	for i := range layers {
		layers[i].validate(i)
		if r.LevelNames == nil && layers[i].Levels != nil {
			r.LevelNames = layers[i].Levels.Names
		}
	}
	if len(layers) == 0 {
		return r, nil
	}
	g := graphPool.Get().(*graph)
	defer graphPool.Put(g)
	g.build(layers, policy, sched)
	if err := g.schedule(int(numBaseResources)*sched.Stages, r, spans); err != nil {
		return nil, err
	}
	if spans {
		r.Spans = g.spans()
		r.perLayer(layers)
		for _, ln := range g.used {
			r.PerResource = append(r.PerResource, ResourceStats{
				Resource:    Resource(ln),
				BusySeconds: g.busy[ln],
				IdleSeconds: r.Makespan - g.busy[ln],
			})
		}
	}
	return r, nil
}

// spans renders the recorded schedule, each span with a freshly
// allocated copy of its dependency list (nil when it has none).
func (g *graph) spans() []Span {
	out := make([]Span, len(g.order))
	all := make([]int, 0, len(g.arena))
	for k, i := range g.order {
		nd := &g.nodes[i]
		var d []int
		if nd.deps.n > 0 {
			lo := len(all)
			for _, v := range g.arena[nd.deps.off : nd.deps.off+nd.deps.n] {
				all = append(all, int(v))
			}
			d = all[lo:len(all):len(all)]
		}
		out[k] = Span{
			Event: Event{Layer: int(nd.layer), Micro: int(nd.micro), Kind: nd.kind,
				Resource: Resource(nd.lane), Duration: nd.dur, Deps: d},
			Start: g.start[i],
			End:   g.end[i],
		}
	}
	return out
}

// perLayer attributes the recorded spans to their layers, in schedule
// order: compute and communication busy time, and each compute-pipe
// stall charged to the compute event that ends it.
func (r *Result) perLayer(layers []Layer) {
	r.PerLayer = make([]LayerStats, len(layers))
	for i := range layers {
		r.PerLayer[i].Name = layers[i].Name
	}
	prevComputeEnd := make([]float64, int(numBaseResources)*r.Stages)
	for _, s := range r.Spans {
		st := &r.PerLayer[s.Layer]
		if s.Resource.Base() != Compute {
			st.CommSeconds += s.Duration
			continue
		}
		st.CompSeconds += s.Duration
		if gap := s.Start - prevComputeEnd[s.Resource]; gap > 0 {
			if s.Kind == FwdComp {
				st.FwdExposed += gap
			} else {
				st.BwdExposed += gap
			}
		}
		prevComputeEnd[s.Resource] = s.End
	}
}

// Simulate schedules events greedily on their resources and returns the
// spans in start order. Events are identified by their index in the
// list, and Deps name prerequisites by index. An event becomes ready
// when all its dependencies have completed; each resource runs one event
// at a time; among ready events the scheduler picks the one with the
// earliest possible start time (then earliest ready time, then lowest
// index). The greedy schedule never idles a resource that has ready
// work, which makes it the natural model of an MPI progress engine
// draining a queue of posted operations. It runs the same scheduler as
// SimulatePipeline, on lanes numbered by the events' distinct resources.
//
// Durations must be non-negative (Simulate panics otherwise — shape/cost
// validation fails loudly, as in internal/tensor); a negative Resource,
// a dependency outside the list, or a dependency cycle returns an
// error. Messages name an event by its index, kind and layer.
func Simulate(events []Event) ([]Span, error) {
	res := make([]Resource, 0, len(events))
	for i := range events {
		e := &events[i]
		if e.Duration < 0 || math.IsNaN(e.Duration) {
			panic(fmt.Sprintf("timeline: event %d (%v, layer %d) has invalid duration %g", i, e.Kind, e.Layer, e.Duration))
		}
		if e.Resource < 0 {
			return nil, fmt.Errorf("timeline: event %d (%v, layer %d) has negative resource %d", i, e.Kind, e.Layer, int(e.Resource))
		}
		for _, d := range e.Deps {
			if d < 0 || d >= len(events) {
				return nil, fmt.Errorf("timeline: event %d (%v, layer %d) depends on unknown event %d", i, e.Kind, e.Layer, d)
			}
		}
		res = append(res, e.Resource)
	}
	slices.Sort(res)
	res = slices.Compact(res)

	g := graphPool.Get().(*graph)
	defer graphPool.Put(g)
	g.arena, g.nodes = g.arena[:0], g.nodes[:0]
	for i := range events {
		e := &events[i]
		d := deps{int32(len(g.arena)), int32(len(e.Deps))}
		for _, v := range e.Deps {
			g.arena = append(g.arena, int32(v))
		}
		ln, _ := slices.BinarySearch(res, e.Resource)
		g.nodes = append(g.nodes, node{lane: int32(ln), dur: e.Duration, deps: d})
	}
	if err := g.schedule(len(res), nil, true); err != nil {
		return nil, err
	}
	spans := make([]Span, len(g.order))
	for k, i := range g.order {
		spans[k] = Span{Event: events[i], Start: g.start[i], End: g.end[i]}
	}
	return spans, nil
}
