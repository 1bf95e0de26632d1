// Deterministic parallel search: the one path every plan takes — Optimize,
// and the pinned-grid Evaluate/EvaluateAt — as a worker-pool engine with
// branch-and-bound pruning.
//
// The engine flattens the (batch size, stage count, grid, placement,
// partition, micro-batch) product into an indexed work list during a
// serial enumeration phase — one stage is just the stage count whose only
// partition is the whole network — prices every leaf with search.evaluate
// (the closed form, or one costmodel.Env.PriceStages per timeline leaf,
// where M = 1 and S = 1 are plain parameter values) across
// Options.Workers goroutines (every leaf is a pure function of its
// inputs), and folds each priced leaf into the winner of its (batch
// size, stage count, grid) slot of Result.All at the next chunk boundary. The fold is one total order — feasible first, then
// lower iteration time, then fewer micro-batches, then lower leaf index —
// so a slot's winner depends neither on the visit order nor on the worker
// count, and the returned Result is bit-identical for any worker count,
// including 1. Only the slot winners and one chunk of plans are held:
// memory is O(slots + chunk), never a plan per leaf. Leaves are scored
// without timeline spans (timeline.Score); after the fold each
// multi-leaf slot's feasible winner is evaluated once more with spans, so
// every reported plan carries its full schedule. Optimize enumerates
// every factorization of P/S; Evaluate pins one grid (the machine then has
// S × g.P() ranks per stage count) and EvaluateAt also pins the placement,
// S = 1 and the base batch.
//
// Branch-and-bound: before pricing a leaf's communication or running the
// timeline simulator, a monotone lower bound on its iteration time —
// per-micro compute (placement- and schedule-invariant) plus, in the
// non-overlapped closed form on a uniform topology, the cheapest ∆W
// all-reduce the candidate must still pay — is checked against the best
// cost seen so far.
// A naive shared best would make the pruned set depend on goroutine
// scheduling, so the work list is processed in fixed-size chunks with
// the incumbent frozen at chunk boundaries: every leaf of chunk c sees
// exactly the best feasible cost of chunks [0, c), regardless of worker
// count. Pruned leaves are counted SearchStats.Bounded and carry a
// placeholder infeasible plan; the winning plan and the pure-batch
// baseline (exempt from pruning) are provably identical with bounds on
// or off — a pruned leaf's true cost is at least its bound, which
// exceeds an incumbent that itself is at least the final best, so no
// pruned leaf can win the global fold. Losing Result.All entries and
// intermediate entries of the improvement trajectory may collapse into
// placeholders (the trajectory stays a subsequence of the exhaustive
// one, ending on the same winner); Options.DisableBounds switches the
// pruning off entirely for callers who want every candidate priced.
//
// Memoization: the per-layer compute costs the partition enumeration
// balances are evaluated once per search, and the compute.Model.
// GridLayerTimes aggregates the lower bounds read once per (grid,
// micro-batch size) during enumeration, shared read-only by every
// placement × partition leaf. On a hierarchical topology the level spans
// of every (grid, placement, stage rank offset) are classified once
// during enumeration too (costmodel.SpanMemo) and read by every leaf's
// Auto choice, pricing and redistribution; the same memo holds the
// whole-block ∆W all-reduce price of every weighted layer per (rank
// block, offset), which Domain and BatchOnly layers of every grid and
// placement sharing that block read by layer position. The memo is
// dropped with the search.
package planner

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
)

// boundChunk is the branch-and-bound chunk size: the pruning incumbent
// is frozen while one chunk of leaves evaluates in parallel and advances
// only at chunk boundaries. It is a constant — never derived from the
// worker count — because the chunk schedule defines which candidates are
// pruned, and that set must not change with parallelism. Searches with
// at most one chunk of leaves (e.g. the paper's flat 10-grid sweep)
// never prune.
const boundChunk = 16

// boundSlack relaxes the lower bound by a hair before comparing it to
// the incumbent. The bound and the full evaluation compute the same
// quantities with different floating-point association (per-layer prefix
// sums vs. the aggregate closed forms), so a mathematically tight bound
// could exceed the true cost by a few ulps and prune a winner on a
// near-tie. 1e-9 relative is orders of magnitude above that noise and
// costs no meaningful pruning power.
const boundSlack = 1 - 1e-9

// timesKey identifies one memoized per-layer compute split.
type timesKey struct{ pr, pc, b int }

// gridTimes holds the aggregates the lower bounds read from one
// compute.Model.GridLayerTimes result: prefix sums of the per-layer
// fwd+bwd seconds (prefix[k] covers weighted layers [0, k)), the
// direction-split prefixes the staged pipeline chain bound needs, their
// total, and the residual overhead.
type gridTimes struct {
	overhead float64
	total    float64
	prefix   []float64
	fwdPre   []float64
	bwdPre   []float64
}

// computeCache memoizes the lower-bound aggregates of GridLayerTimes
// across the leaves that share (grid, batch). The map is written only
// during the serial enumeration phase and read concurrently by the
// worker pool.
type computeCache struct {
	cm  compute.Model
	net *nn.Network
	m   map[timesKey]*gridTimes
}

func newComputeCache(cm compute.Model, net *nn.Network) *computeCache {
	return &computeCache{cm: cm, net: net, m: make(map[timesKey]*gridTimes)}
}

func (c *computeCache) build(g grid.Grid, b int) *gridTimes {
	times, ov := c.cm.GridLayerTimes(c.net, b, g)
	gt := &gridTimes{overhead: ov,
		prefix: make([]float64, len(times)+1),
		fwdPre: make([]float64, len(times)+1),
		bwdPre: make([]float64, len(times)+1)}
	for i, t := range times {
		gt.prefix[i+1] = gt.prefix[i] + t.Fwd + t.Bwd
		gt.fwdPre[i+1] = gt.fwdPre[i] + t.Fwd
		gt.bwdPre[i+1] = gt.bwdPre[i] + t.Bwd
	}
	gt.total = gt.prefix[len(times)]
	return gt
}

// fill populates the entry for (g, b); enumeration-phase only.
func (c *computeCache) fill(g grid.Grid, b int) {
	k := timesKey{g.Pr, g.Pc, b}
	if _, ok := c.m[k]; !ok {
		c.m[k] = c.build(g, b)
	}
}

// peek returns the entry for (g, b), computing a fresh one — without
// storing it, so concurrent readers never see a write — on a miss.
// Cached and fresh entries are bit-identical (GridLayerTimes is pure),
// so a miss can never change a result, only waste the memoization.
func (c *computeCache) peek(g grid.Grid, b int) *gridTimes {
	if gt, ok := c.m[timesKey{g.Pr, g.Pc, b}]; ok {
		return gt
	}
	return c.build(g, b)
}

// floorKey identifies one memoized ∆W communication floor.
type floorKey struct {
	pr, pc int
	pl     grid.Placement
}

// leaf is one fully specified candidate: a (batch size, stage count,
// grid, placement, partition, micro-batch) tuple awaiting evaluation, and
// the index of the slot it folds into.
type leaf struct {
	B     int
	S     int
	g     grid.Grid
	pl    grid.Placement
	part  stage.Partition
	micro int
	slot  int
}

// slot is one entry of Result.All, a (batch size, stage count, grid)
// tuple whose leaves fold into one reported plan, the search's winners
// entry of the same index. win is the index of the winning leaf so far
// (-1 before the first fold); pseudo slots (S values that do not divide
// P, partition errors) own no leaves and report their pre-built
// infeasible plan.
type slot struct {
	// pure marks the 1×P pure-batch baseline at the base batch size,
	// whose leaves are exempt from bounding: Result.PureBatch is the
	// reference the paper's speedups are quoted against, so it must
	// always be fully priced.
	pure bool
	// single marks a slot of one leaf: that leaf is the winner, so it is
	// evaluated with spans the first time.
	single bool
	win    int
}

// search is one Optimize invocation's engine state.
type search struct {
	net    *nn.Network
	B, P   int // B is the base batch size (Optimize's argument)
	opts   Options
	bounds bool
	cc     *computeCache
	floors map[floorKey]float64
	// spans memoizes the level-span classification of every (grid,
	// placement, rank offset) the leaves price and the gradient
	// all-reduce price of every (rank block, offset, weighted layer),
	// filled during the serial enumeration and read lock-free by the
	// workers like cc; nil on a uniform topology, whose pricing never
	// classifies.
	spans *costmodel.SpanMemo
	// batches is the batch search space (Options.batchSizes(B)); grid,
	// when set, pins the per-stage grid of every stage count in place of
	// the factorizations of P/S, the machine then having S × grid.P()
	// ranks. steps memoizes Curve.Steps per batch size under the
	// TimeToAccuracy objective (nil under Iteration), converting
	// iteration-time lower bounds and incumbents into objective units.
	batches []int
	grid    *grid.Grid
	steps   map[int]float64
	slots   []slot
	winners []Plan
	leaves  []leaf
	// tightest is the smallest per-process footprint among the leaves
	// the memory limit rejected (+Inf when none), for infeasibleError.
	tightest float64
	// lbs/lbOK hold the per-leaf lower bounds computed once by run()'s
	// ordering pass; evalLeaf reads them instead of re-deriving the bound
	// per leaf. Nil when bounds are disabled.
	lbs  []float64
	lbOK []bool
}

func newSearch(net *nn.Network, B, P int, opts Options, memoSpans bool) *search {
	s := &search{
		net:      net,
		B:        B,
		P:        P,
		opts:     opts,
		bounds:   !opts.DisableBounds,
		cc:       newComputeCache(opts.Compute, net),
		floors:   make(map[floorKey]float64),
		batches:  opts.batchSizes(B),
		tightest: math.Inf(1),
	}
	if topo := opts.topology(); memoSpans && !topo.Uniform() {
		s.spans = costmodel.NewSpanMemo(topo, net)
	}
	if opts.Objective == TimeToAccuracy {
		s.steps = make(map[int]float64, len(s.batches))
		for _, b := range s.batches {
			s.steps[b] = opts.Curve.Steps(b)
		}
	}
	return s
}

// objectiveScale returns the factor converting a leaf's iteration-time
// lower bound into objective units: S(B) under TimeToAccuracy, exactly 1
// under Iteration.
func (s *search) objectiveScale(B int) float64 {
	if s.steps == nil {
		return 1
	}
	return s.steps[B]
}

// enumerate builds the slot and leaf lists in the serial search order —
// batch sizes, then stage counts, then grid factorizations, then
// placements × partitions × micro-batches — pre-filling the compute
// memo, the level-span memo, and the ∆W floors, and counting the
// enumeration-side telemetry (batches, grids, stage counts, partitions,
// and the pseudo-slot candidates) into st. The candidate partitions per
// stage count are batch-independent, so they are enumerated once and
// shared across the batch sweep (stage counts are likewise counted once).
// S = 1 is the stage count whose one partition is the whole network: it
// never consults Options.Partition and adds nothing to the partition and
// stage-candidate counts.
func (s *search) enumerate(st *SearchStats) {
	o := s.opts
	micros := o.microBatches()
	pls := o.placements()
	grids := func(S int) []grid.Grid {
		if s.grid != nil {
			return []grid.Grid{*s.grid}
		}
		return grid.Factorizations(s.P / S)
	}
	// Pseudo plans of a pinned grid name it; a searched (B, S) pair has
	// no single grid.
	var pseudoGrid grid.Grid
	if s.grid != nil {
		pseudoGrid = *s.grid
	}
	pseudo := func(B, S int, reason string) {
		st.Candidates++
		st.StageCandidates++
		st.InfeasiblePruned++
		s.slots = append(s.slots, slot{win: -1})
		s.winners = append(s.winners, Plan{Grid: pseudoGrid, Batch: B, Mode: o.Mode, MicroBatch: 1,
			Schedule: o.Schedule, Stages: S, Reason: reason})
	}
	// The ∆W floor sharpens the bound only where the closed form
	// serializes communication after compute (no overlap, no timeline),
	// and only on a uniform topology, where FCGradReduceSeconds is a
	// closed form. On a hierarchical topology the floor costs a level-span
	// scan per (grid, placement) — measured at roughly a third of pricing
	// the candidate outright, for exactly one M=1 leaf each — so the
	// compute-only bound stands alone there.
	needFloors := s.bounds && !o.UseTimeline && !o.Overlap && o.topology().Uniform()
	var layerCosts []float64
	type partsMemo struct {
		parts []stage.Partition
		err   error
	}
	partsBy := make(map[int]partsMemo)
	st.BatchSizesSearched = len(s.batches)
	for bi, B := range s.batches {
		for _, S := range o.stageCounts() {
			if bi == 0 {
				st.StageCountsSearched++
			}
			if s.grid == nil && s.P%S != 0 {
				pseudo(B, S, fmt.Sprintf("S=%d stages do not divide P=%d", S, s.P))
				continue
			}
			pm, ok := partsBy[S]
			if !ok {
				if S == 1 {
					pm.parts = []stage.Partition{stage.Balanced(len(s.net.WeightedLayers()), 1)}
				} else {
					if layerCosts == nil {
						layerCosts = layerComputeCosts(s.net)
					}
					pm.parts, pm.err = o.partitionsFrom(layerCosts, S)
					if pm.err == nil {
						st.PartitionsEnumerated += len(pm.parts)
					}
				}
				partsBy[S] = pm
			}
			if pm.err != nil {
				pseudo(B, S, pm.err.Error())
				continue
			}
			for _, g := range grids(S) {
				st.GridsEnumerated++
				gp := pls
				if g.Pr == 1 || g.Pc == 1 {
					// Degenerate grids have identical rank mappings under
					// every placement; extra placements would duplicate
					// the first plan.
					gp = gp[:1]
				}
				si, first := len(s.slots), len(s.leaves)
				for _, pl := range gp {
					if S == 1 && needFloors {
						s.fillFloor(g, pl)
					}
					// Stage k's rank block starts at k·g.P().
					for k := 0; k < S; k++ {
						s.spans.Fill(g, pl, k*g.P())
					}
					for _, part := range pm.parts {
						for _, m := range micros {
							s.leaves = append(s.leaves, leaf{B: B, S: S, g: g, pl: pl, part: part, micro: m, slot: si})
						}
					}
				}
				if s.bounds {
					s.prefillTimes(B, g, micros)
				}
				s.slots = append(s.slots, slot{pure: S == 1 && B == s.B && g.IsPureBatch(),
					single: len(s.leaves)-first == 1, win: -1})
				s.winners = append(s.winners, Plan{})
			}
		}
	}
}

// prefillTimes memoizes the compute aggregates the lower bounds of a
// (batch, grid) pair's leaves read, one per candidate micro-batch size.
func (s *search) prefillTimes(B int, g grid.Grid, micros []int) {
	for _, m := range micros {
		if m >= 1 && B%m == 0 {
			s.cc.fill(g, B/m)
		}
	}
}

func (s *search) fillFloor(g grid.Grid, pl grid.Placement) {
	k := floorKey{g.Pr, g.Pc, pl}
	if _, ok := s.floors[k]; ok {
		return
	}
	env := costmodel.Env{Topo: s.opts.topology(), Placement: pl}
	s.floors[k] = env.FCGradReduceSeconds(s.net, g)
}

// lowerBound returns a monotone lower bound on the leaf's objective
// cost, or ok=false when the leaf fails a structural constraint (it then
// flows through the full evaluation to be classified InfeasiblePruned
// with its exact reason, exactly as without bounds).
//
// The bound is compute-only plus terms the schedule provably cannot
// hide: every simulated or closed-form iteration is at least its busiest
// compute lane — M micro-batches' fwd+bwd per-layer times on a single
// stage, or M × the heaviest stage's slice under a partition — plus the
// per-iteration fixed overhead and the M-scaled unweighted-layer
// compute; the non-overlapped closed form additionally serializes all
// communication, of which the FC layers' Model-strategy ∆W all-reduce
// is an assignment-independent floor. Under the TimeToAccuracy objective
// the iteration-time bound is scaled by S(B) — the candidate's exact
// steps multiplier — which keeps it a true lower bound on the campaign
// cost and lets cheap-iteration batch sizes prune expensive ones.
func (s *search) lowerBound(lf *leaf) (float64, bool) {
	if s.structural(lf) != "" {
		return 0, false
	}
	o := &s.opts
	g := lf.g
	mb := lf.B / lf.micro
	scale := s.objectiveScale(lf.B)
	gt := s.cc.peek(g, mb)
	fixed := o.Compute.FixedIter
	M := float64(lf.micro)
	if lf.S == 1 {
		if lf.micro == 1 {
			lb := gt.total + gt.overhead
			if !o.UseTimeline && !o.Overlap {
				lb += s.floors[floorKey{g.Pr, g.Pc, lf.pl}]
			}
			return lb * scale, true
		}
		// One stage runs all M micro-batches on one compute lane; the
		// pipeline overhead contributes FixedIter once plus the
		// unweighted compute per micro-batch (the flush update is ≥ 0).
		return (M*(gt.total+gt.overhead-fixed) + fixed) * scale, true
	}
	// Stage-partitioned: for every stage k there is a dependency chain no
	// schedule can compress — micro-batch 1's forward must traverse the
	// stages before k before k's lane can start, k's lane then serially
	// executes all M micro-batches of its own slice, and its last
	// operation is some micro-batch's backward, which still has to
	// propagate back through the stages before k. The bound is the
	// longest such chain over k.
	// A single micro-batch also traverses every stage forward and
	// backward serially, so the whole-network per-micro compute is a
	// second schedule-independent chain.
	chain := gt.total
	for k := 0; k < lf.S; k++ {
		lo, hi := lf.part.Bounds(k)
		c := gt.fwdPre[lo] + M*(gt.prefix[hi]-gt.prefix[lo]) + gt.bwdPre[lo]
		if c > chain {
			chain = c
		}
	}
	return (chain + fixed + M*(gt.overhead-fixed)) * scale, true
}

// evalLeaf evaluates leaf i against the frozen incumbent, recording its
// telemetry in the worker's shard. The leaf's lower bound was computed
// once by run()'s ordering pass (s.lbs/s.lbOK); re-deriving it here
// would double the bound cost for zero information.
func (s *search) evalLeaf(i int, incumbent float64, st *SearchStats) Plan {
	lf := &s.leaves[i]
	if s.bounds && !s.slots[lf.slot].pure {
		if lb := s.lbs[i]; s.lbOK[i] && lb*boundSlack > incumbent {
			st.Candidates++
			if lf.S > 1 {
				st.StageCandidates++
			}
			st.Bounded++
			kind := "compute"
			if s.opts.Objective == TimeToAccuracy {
				kind = "time-to-accuracy"
			}
			p := Plan{Grid: lf.g, Batch: lf.B, Placement: lf.pl, Mode: s.opts.Mode, MicroBatch: lf.micro,
				Schedule: s.opts.Schedule, Stages: lf.S,
				Reason: fmt.Sprintf("pruned: %s lower bound %.4gs exceeds incumbent best %.4gs",
					kind, lb, incumbent)}
			if lf.S > 1 {
				p.Partition = lf.part.Cuts()
			}
			return p
		}
	}
	return s.evaluate(lf, st, s.slots[lf.slot].single)
}

// run evaluates every leaf across the worker pool, chunk by chunk,
// folds each chunk's plans into their slots' winners, and merges the
// per-worker telemetry shards into st.
//
// With bounds enabled the leaves are visited in ascending lower-bound
// order (stable on the enumeration index): the cheapest-looking
// candidates evaluate first, so the incumbent falls fast and the
// expensive tail is pruned before pricing. The visit order is a pure
// function of the enumerated leaves — never of worker count or timing —
// and the fold is a total order on (plan, leaf index), so the folded
// Result is unchanged by the reordering and identical for any worker
// count.
func (s *search) run(st *SearchStats) {
	n := len(s.leaves)
	if n == 0 {
		return
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if s.bounds {
		s.lbs = make([]float64, n)
		s.lbOK = make([]bool, n)
		for i := range s.leaves {
			// Structurally infeasible leaves keep lb = 0: they sort to
			// the front, where their (cheap, never-priced) classification
			// cannot delay the incumbent.
			if lb, ok := s.lowerBound(&s.leaves[i]); ok {
				s.lbs[i], s.lbOK[i] = lb, true
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return s.lbs[order[a]] < s.lbs[order[b]] })
	}
	workers := s.opts.Workers
	if workers <= 0 {
		// Default to the scheduler's parallelism, but never oversubscribe
		// the physical cores: the leaves are CPU-bound, so workers beyond
		// NumCPU only add contention (the result is identical for any
		// worker count, so the cap is purely a scheduling choice).
		workers = runtime.GOMAXPROCS(0)
		if ncpu := runtime.NumCPU(); workers > ncpu {
			workers = ncpu
		}
	}
	if workers > n {
		workers = n
	}
	shards := make([]SearchStats, workers)
	// buf holds one chunk's plans, indexed by visit position − lo.
	buf := make([]Plan, min(boundChunk, n))
	incumbent := math.Inf(1)
	for lo := 0; lo < n; lo += boundChunk {
		hi := min(lo+boundChunk, n)
		if workers == 1 {
			for p := lo; p < hi; p++ {
				buf[p-lo] = s.evalLeaf(order[p], incumbent, &shards[0])
			}
		} else {
			// Workers pull visit positions from a shared counter: dynamic
			// balancing within the chunk, while every leaf's result lands
			// at its own position — scheduling decides only who computes
			// what, never what is computed.
			next := int64(lo)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(sh *SearchStats) {
					defer wg.Done()
					for {
						p := int(atomic.AddInt64(&next, 1)) - 1
						if p >= hi {
							return
						}
						buf[p-lo] = s.evalLeaf(order[p], incumbent, sh)
					}
				}(&shards[w])
			}
			wg.Wait()
		}
		// Advance the frozen incumbent: chunk boundaries are the only
		// points where pruning decisions may observe new information.
		// The incumbent lives in objective units (iteration seconds, or
		// campaign seconds under TimeToAccuracy), matching the bounds.
		for p := lo; p < hi; p++ {
			pl := &buf[p-lo]
			if pl.Feasible {
				if c := s.opts.objectiveCost(pl); c < incumbent {
					incumbent = c
				}
			}
			s.fold(order[p], pl)
		}
	}
	for i := range shards {
		st.merge(shards[i])
	}
	// Spans only for reported plans: the leaves of multi-leaf slots were
	// scored without them, so each such slot's feasible winner is
	// evaluated once more with spans. Evaluation is a pure function of
	// the leaf, so the plan is the scored one plus its Spans, PerLayer
	// and PerResource. The rerun is charged to the simulate phase and
	// counts no candidate or simulation.
	simStart := time.Now()
	var rerun SearchStats
	for i, sl := range s.slots {
		if w := &s.winners[i]; !sl.single && sl.win >= 0 && w.Timeline != nil {
			*w = s.evaluate(&s.leaves[sl.win], &rerun, true)
		}
	}
	st.SimulateSeconds += time.Since(simStart).Seconds()
}

// fold folds leaf i's plan into its slot's winner. The order is total:
// feasible before infeasible, then (between feasible plans) lower
// IterSeconds, then smaller MicroBatch, then lower leaf index — so the
// winner does not depend on the visit order, and an all-infeasible slot
// reports its first leaf. It also tracks the tightest footprint the
// memory limit rejected.
func (s *search) fold(i int, p *Plan) {
	if !p.Feasible && p.MemoryWords > s.opts.MemoryLimitWords && p.MemoryWords < s.tightest {
		// The exact prune condition of the evaluator: a footprint was
		// derived and exceeded the limit.
		s.tightest = p.MemoryWords
	}
	si := s.leaves[i].slot
	if sl, w := &s.slots[si], &s.winners[si]; sl.win < 0 || precedes(p, i, w, sl.win) {
		*w, sl.win = *p, i
	}
}

// precedes reports whether plan p of leaf i comes before plan q of leaf j
// in the fold order.
func precedes(p *Plan, i int, q *Plan, j int) bool {
	switch {
	case p.Feasible != q.Feasible:
		return p.Feasible
	case p.Feasible && p.IterSeconds != q.IterSeconds:
		return p.IterSeconds < q.IterSeconds
	case p.Feasible && p.MicroBatch != q.MicroBatch:
		return p.MicroBatch < q.MicroBatch
	}
	return i < j
}

// best returns the index of the slot winner a search reports: the first
// feasible plan of lowest objective cost, or -1 when none is feasible.
// improved, when non-nil, sees every winner that lowers the running best,
// in slot order.
func (s *search) best(improved func(p *Plan)) int {
	bi, cost := -1, math.Inf(1)
	for i := range s.winners {
		p := &s.winners[i]
		if !p.Feasible {
			continue
		}
		if c := s.opts.objectiveCost(p); c < cost {
			bi, cost = i, c
			if improved != nil {
				improved(p)
			}
		}
	}
	return bi
}
