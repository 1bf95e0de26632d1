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
// without timeline spans (timeline.Score); after the fold only the
// search's best is evaluated once more in full (see Numbers in the
// search below), so the reported plan carries its full schedule.
// Optimize enumerates every factorization of P/S; Evaluate pins one grid
// (the machine then has S × g.P() ranks per stage count) and EvaluateAt
// also pins the placement, S = 1 and the base batch.
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
// balances are evaluated once per search, and each stage count's grids
// and partitions once per search, whatever the batch sweep. A search of
// more than one chunk — the only kind that bounds — computes every
// leaf's lower bound in one pass over the leaves in enumeration order
// (search.lowerBounds), keeping only the current slot's
// compute.Model.GridLayerTimes aggregates per micro-batch size, its S(B)
// and the current placement's ∆W floor; a one-chunk search holds no
// bound state at all. On a hierarchical topology the search owns one
// span table (costmodel.SpanMemo), filled during enumeration — for the
// first batch size only, since the stage rank blocks and grids are the
// same for every batch size — and sealed before any leaf is priced. Each
// distinct (group progression, stage rank offset) is classified once, a
// grid's column groups sharing their entry with its transpose's row
// groups; each stage rank block holds its whole-block span and the ∆W
// all-reduce price of every weighted layer class, which the Domain and
// BatchOnly layers of every grid and placement on that block read. Every
// leaf's pricing, the Auto choice and redistribution included, finds its
// entries by scanning the few blocks and one block's progressions,
// without hashing, and the table's level stats, spans and prices live in
// arenas sized when it is sealed: a fixed handful of allocations per
// search, whatever its grid or leaf count. The table is dropped with the
// search (a process-wide one grows the live heap; see ROADMAP item 8).
//
// Numbers in the search: every leaf is priced into its worker's scratch,
// overwritten by every leaf, and its plan keeps only the numbers the
// fold, the bounds and the report read. A closed-form leaf uses one
// costmodel.Breakdown and, under Auto, one resolved Assignment map per
// worker (costmodel.Env.FullIntegratedInto, Breakdown.AssignInto) and
// keeps the communication and iteration totals, the footprint and the
// Eq. 6 redistribution; a warm worker scores it without allocating. A
// timeline leaf uses one costmodel.StageScratch per worker — breakdown,
// layer times and simulator input, level splits included
// (costmodel.Env.PriceStagesInto) — and keeps timeline.Score's
// aggregates, its per-stage table and, under Auto, its resolved
// Assignment; a warm worker allocates only those. A structurally
// infeasible or bound-pruned leaf is decided from numbers (the smallest
// conv input height is found once per search); its Reason, like a
// memory-pruned leaf's, is formatted only if it wins its slot, after
// the fold. The per-term breakdown and the spans are read only off the
// plan the search reports as best, so after the fold that one leaf is
// evaluated once more in full: its own breakdown and, on the timeline,
// its spans and per-layer and per-lane statistics (a closed-form best
// keeps the scratch it was priced into). A search of one leaf evaluates
// it in full the first time.
package planner

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
)

// boundChunk is the branch-and-bound chunk size: the pruning incumbent
// is frozen while one chunk of leaves evaluates in parallel and advances
// only at chunk boundaries. It is a constant — never derived from the
// worker count — because the chunk schedule defines which candidates are
// pruned, and that set must not change with parallelism. A search with
// at most one chunk of leaves (e.g. the paper's flat 10-grid sweep)
// never prunes — its only chunk sees the +Inf incumbent — so it computes
// no bounds at all: no bound pass and no bound-order sort (the fold is a
// total order, so the visit order cannot change its Result).
const boundChunk = 16

// boundSlack relaxes the lower bound by a hair before comparing it to
// the incumbent. The bound and the full evaluation compute the same
// quantities with different floating-point association (per-layer prefix
// sums vs. the aggregate closed forms), so a mathematically tight bound
// could exceed the true cost by a few ulps and prune a winner on a
// near-tie. 1e-9 relative is orders of magnitude above that noise and
// costs no meaningful pruning power.
const boundSlack = 1 - 1e-9

// gridTimes holds the aggregates the lower bounds read from one
// compute.Model.GridLayerTimes result at micro-batch size b: prefix sums
// of the per-layer fwd+bwd seconds (prefix[k] covers weighted layers
// [0, k)), the direction-split prefixes the stage-chain bound needs, and
// the residual overhead.
type gridTimes struct {
	b        int
	overhead float64
	prefix   []float64
	fwdPre   []float64
	bwdPre   []float64
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
// (-1 before the first fold) and inc the incumbent it was evaluated
// against, from which run labels a pruned winner; pseudo slots (S values
// that do not divide P, partition errors) own no leaves and report their
// pre-built infeasible plan.
type slot struct {
	// pure marks the 1×P pure-batch baseline at the base batch size,
	// whose leaves are exempt from bounding: Result.PureBatch is the
	// reference the paper's speedups are quoted against, so it must
	// always be fully priced.
	pure bool
	win  int
	inc  float64
}

// worker is one pool worker's private state: its telemetry shard and
// the scratch its leaves are priced into, overwritten by every leaf — in
// closed form a breakdown and (under Auto) a resolved-assignment map,
// which a reported plan takes over; on the timeline a stage scratch and
// the per-stage grid list.
type worker struct {
	st     SearchStats
	bd     costmodel.Breakdown
	assign costmodel.Assignment
	stage  costmodel.StageScratch
	grids  []grid.Grid
}

// search is one Optimize invocation's engine state.
type search struct {
	net  *nn.Network
	B, P int // B is the base batch size (Optimize's argument)
	opts Options
	topo machine.Topology // opts.topology(), resolved once
	// assign is the mode's requested Eq. 9 assignment, grid-independent
	// and read by every leaf: conv layers Cheapest under Auto, resolved
	// by each leaf's pricing pass.
	assign costmodel.Assignment
	// minConvH is the smallest conv input height (math.MaxInt without
	// conv layers), the ConvDomain structural check's limit.
	minConvH int
	// spans is the search's span table: the level spans of every
	// collective group progression the leaves price per rank offset, and
	// per rank block its span and the gradient all-reduce price of every
	// weighted layer class, filled and sealed during the serial
	// enumeration and read lock-free by the workers; nil on a
	// uniform topology, whose pricing never classifies, and when
	// memoSpans is off.
	spans     *costmodel.SpanMemo
	memoSpans bool
	// batches is the batch search space (Options.Batches(B)); grid,
	// when set, pins the per-stage grid of every stage count in place of
	// the factorizations of P/S, the machine then having S × grid.P()
	// ranks.
	batches []int
	grid    *grid.Grid
	slots   []slot
	winners []Plan
	leaves  []leaf
	// tightest is the smallest per-process footprint among the leaves
	// the memory limit rejected (+Inf when none), for infeasibleError.
	tightest float64
	// lbs holds the per-leaf lower bounds computed once by run()'s
	// ordering pass (lowerBounds); evalLeaf reads them instead of
	// re-deriving the bound per leaf. Nil when bounds are disabled or the
	// search is one chunk.
	lbs []float64
}

func newSearch(net *nn.Network, B, P int, opts Options, memoSpans bool) *search {
	s := &search{
		net:      net,
		B:        B,
		P:        P,
		opts:     opts,
		topo:     opts.topology(),
		batches:  opts.Batches(B),
		tightest: math.Inf(1),
		minConvH: math.MaxInt,
	}
	s.memoSpans = memoSpans && !s.topo.Uniform()
	for _, li := range net.WeightedLayers() {
		if l := &net.Layers[li]; l.Kind == nn.Conv {
			s.minConvH = min(s.minConvH, l.In.H)
		}
	}
	if conv, ok := map[Mode]costmodel.Strategy{Uniform: costmodel.Model, ConvBatch: costmodel.BatchOnly,
		ConvDomain: costmodel.Domain, Auto: costmodel.Cheapest}[opts.Mode]; ok {
		s.assign = costmodel.ConvAssignment(net, conv, costmodel.Model) // FC layers are Model in every mode
	}
	return s
}

// enumerate builds the slot and leaf lists in the serial search order —
// batch sizes, then stage counts, then grid factorizations, then
// placements × partitions × micro-batches — filling and sealing the span
// table, and counting the enumeration-side telemetry (batches, grids,
// stage counts, partitions, and the pseudo-slot candidates) into st. The
// candidate partitions per stage count are batch-independent, so they
// are enumerated once, before the batch sweep; their counts size the
// slot and leaf lists exactly (Options.space) and the span table. S = 1
// is the stage count whose one partition is the whole network: it never
// consults Options.Partition and adds nothing to the partition and
// stage-candidate counts.
func (s *search) enumerate(st *SearchStats) {
	o := s.opts
	micros := o.microBatches()
	pls := o.placements()
	counts := o.stageCounts()
	// A stage count's grids (the factorizations of P/S, or the pinned
	// grid) and partitions are batch-independent. A stage count that does
	// not divide P, or whose partitions fail, owns one pseudo slot per
	// batch size.
	type partsMemo struct {
		grids []grid.Grid
		parts []stage.Partition
		err   error
	}
	partsBy := make(map[int]partsMemo, len(counts))
	var layerCosts []float64
	nSlots, nLeaves, nBlocks, nFills := 0, 0, 0, 0
	for _, S := range counts {
		pm, ok := partsBy[S]
		if !ok {
			switch {
			case s.grid == nil && s.P%S != 0:
				pm.err = fmt.Errorf("S=%d stages do not divide P=%d", S, s.P)
			case S == 1:
				pm.parts = []stage.Partition{stage.Balanced(len(s.net.WeightedLayers()), 1)}
			default:
				if layerCosts == nil {
					layerCosts = layerComputeCosts(s.net)
				}
				pm.parts, pm.err = o.partitionsFrom(layerCosts, S)
				if pm.err == nil {
					st.PartitionsEnumerated += len(pm.parts)
				}
			}
			if s.grid != nil {
				pm.grids = []grid.Grid{*s.grid}
			} else if pm.err == nil {
				pm.grids = grid.Factorizations(s.P / S)
			}
			partsBy[S] = pm
		}
		if pm.err != nil {
			nSlots += len(s.batches)
			continue
		}
		sp := o.space(s.B, s.P, S, len(pm.parts), s.grid)
		nSlots += sp.Grids * sp.BatchSizes
		nLeaves += sp.leaves()
		// Stage k's rank block starts at k·P/S; every (grid, placement)
		// fills each block once.
		nBlocks += S
		nFills += S * sp.GridPlacements
	}
	if s.memoSpans {
		s.spans = costmodel.NewSpanMemo(s.topo, s.net, nBlocks, nFills)
	}
	s.slots = make([]slot, 0, nSlots)
	s.winners = make([]Plan, 0, nSlots)
	s.leaves = make([]leaf, 0, nLeaves)
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
	st.BatchSizesSearched = len(s.batches)
	st.StageCountsSearched += len(counts)
	for bi, B := range s.batches {
		for _, S := range counts {
			pm := partsBy[S]
			if pm.err != nil {
				pseudo(B, S, pm.err.Error())
				continue
			}
			for _, g := range pm.grids {
				st.GridsEnumerated++
				si := len(s.slots)
				for _, pl := range gridPlacements(pls, g) {
					// Stage k's rank block starts at k·g.P(); the blocks
					// and grids are the same for every batch size.
					if bi == 0 {
						for k := 0; k < S; k++ {
							s.spans.Fill(g, pl, k*g.P())
						}
					}
					for _, part := range pm.parts {
						for _, m := range micros {
							s.leaves = append(s.leaves, leaf{B: B, S: S, g: g, pl: pl, part: part, micro: m, slot: si})
						}
					}
				}
				s.slots = append(s.slots, slot{pure: S == 1 && B == s.B && g.IsPureBatch(), win: -1})
				s.winners = append(s.winners, Plan{})
			}
		}
	}
	s.spans.Seal()
}

// lowerBounds returns a monotone lower bound on every leaf's objective
// cost, in one pass over the leaves in enumeration order. A leaf that
// fails a structural constraint keeps bound 0: every cost is ≥ 0, so it
// is never pruned and flows through the full evaluation to be classified
// InfeasiblePruned with its exact reason, exactly as without bounds.
//
// The bound is compute-only plus terms the schedule provably cannot
// hide: every simulated or closed-form iteration is at least its longest
// stage chain (below; on one stage, M micro-batches' fwd+bwd per-layer
// times on its single compute lane), plus the per-iteration fixed
// overhead and the M-scaled unweighted-layer compute; the non-overlapped
// closed form additionally serializes all communication, of which the FC
// layers' Model-strategy ∆W all-reduce is an assignment-independent
// floor. Under the TimeToAccuracy objective the iteration-time bound is
// scaled by S(B) — the candidate's exact steps multiplier — which keeps
// it a true lower bound on the campaign cost and lets cheap-iteration
// batch sizes prune expensive ones.
//
// What the bounds read is kept for the current slot only: the
// compute.Model.GridLayerTimes aggregates of each micro-batch size on
// the slot's grid, S(B), and the ∆W floor of the current placement. The
// floor is taken only on one stage in the non-overlapped closed form on
// a uniform topology, where FCGradReduceSeconds is a closed form; on a
// hierarchical topology it costs a level-span scan per (grid, placement)
// — measured at roughly a third of pricing the candidate outright, for
// exactly one M=1 leaf each — so the compute-only bound stands alone
// there.
func (s *search) lowerBounds() []float64 {
	o := &s.opts
	serial := !o.UseTimeline && !o.Overlap
	fixed := o.Compute.FixedIter
	lbs := make([]float64, len(s.leaves))
	var times []gridTimes
	var scale, floor float64
	for i := range s.leaves {
		lf := &s.leaves[i]
		newSlot := i == 0 || lf.slot != s.leaves[i-1].slot
		if newSlot {
			times, scale = times[:0], 1
			if o.Objective == TimeToAccuracy {
				scale = o.Curve.Steps(lf.B)
			}
		}
		if newSlot || lf.pl != s.leaves[i-1].pl {
			floor = 0
			if serial && lf.S == 1 && s.topo.Uniform() {
				env := costmodel.Env{Topo: s.topo, Placement: lf.pl}
				floor = env.FCGradReduceSeconds(s.net, lf.g)
			}
		}
		if s.misfit(lf) != fits {
			continue
		}
		gt := s.slotTimes(&times, lf.g, lf.B/lf.micro)
		M := float64(lf.micro)
		// For every stage k there is a dependency chain no schedule can
		// compress — micro-batch 1's forward must traverse the stages
		// before k before k's lane can start, k's lane then serially
		// executes all M micro-batches of its own slice, and its last
		// operation is some micro-batch's backward, which still has to
		// propagate back through the stages before k. The bound is the
		// longest such chain over k. A single micro-batch also traverses
		// every stage forward and backward serially, so the whole-network
		// per-micro compute is a second schedule-independent chain.
		chain := gt.prefix[len(gt.prefix)-1]
		for k := 0; k < lf.S; k++ {
			lo, hi := lf.part.Bounds(k)
			c := gt.fwdPre[lo] + M*(gt.prefix[hi]-gt.prefix[lo]) + gt.bwdPre[lo]
			if c > chain {
				chain = c
			}
		}
		lb := chain + fixed + M*(gt.overhead-fixed)
		if serial {
			lb += floor
		}
		lbs[i] = lb * scale
	}
	return lbs
}

// slotTimes returns the bound aggregates of micro-batch size b on grid g
// from times, the current slot's, appending them on first use; an entry
// reuses the storage of a previous slot's entry at its position.
func (s *search) slotTimes(times *[]gridTimes, g grid.Grid, b int) *gridTimes {
	for j := range *times {
		if (*times)[j].b == b {
			return &(*times)[j]
		}
	}
	n := len(*times)
	if n < cap(*times) {
		*times = (*times)[:n+1]
	} else {
		*times = append(*times, gridTimes{})
	}
	gt := &(*times)[n]
	lt, ov := s.opts.Compute.GridLayerTimes(s.net, b, g)
	gt.b, gt.overhead = b, ov
	gt.prefix = append(gt.prefix[:0], 0)
	gt.fwdPre = append(gt.fwdPre[:0], 0)
	gt.bwdPre = append(gt.bwdPre[:0], 0)
	for k, t := range lt {
		gt.prefix = append(gt.prefix, gt.prefix[k]+t.Fwd+t.Bwd)
		gt.fwdPre = append(gt.fwdPre, gt.fwdPre[k]+t.Fwd)
		gt.bwdPre = append(gt.bwdPre, gt.bwdPre[k]+t.Bwd)
	}
	return gt
}

// evalLeaf evaluates leaf i against the frozen incumbent on worker w.
// The leaf's lower bound was computed once by run()'s ordering pass
// (s.lbs); re-deriving it here would double the bound cost for
// zero information. A pruned leaf's placeholder carries no Reason: run
// labels it only if it wins its slot.
func (s *search) evalLeaf(i int, incumbent float64, w *worker) Plan {
	lf := &s.leaves[i]
	if _, pruned := s.pruned(i, incumbent); pruned {
		st := &w.st
		st.Candidates++
		if lf.S > 1 {
			st.StageCandidates++
		}
		st.Bounded++
		return Plan{Grid: lf.g, Batch: lf.B, Placement: lf.pl, Mode: s.opts.Mode, MicroBatch: lf.micro,
			Schedule: s.opts.Schedule, Stages: lf.S, Partition: cuts(lf.part)}
	}
	// A search of one leaf reports it: it is evaluated in full the first
	// time.
	return s.evaluate(lf, w, len(s.leaves) == 1)
}

// pruned reports whether leaf i's lower bound, returned, exceeds the
// frozen incumbent: never for the pure-batch baseline, a search without
// bounds or a structurally infeasible leaf (its bound 0 exceeds no
// incumbent).
func (s *search) pruned(i int, incumbent float64) (float64, bool) {
	if s.lbs == nil || s.slots[s.leaves[i].slot].pure {
		return 0, false
	}
	return s.lbs[i], s.lbs[i]*boundSlack > incumbent
}

// label sets the Reason of an infeasible slot winner that was scored
// without one: a leaf pruned by its bound, one that fails a structural
// constraint, or one whose footprint exceeds the memory limit (the only
// verdicts evaluate leaves unlabeled). Only the winners, never every
// leaf, pay for the formatting.
func (s *search) label(si int) {
	sl, p := &s.slots[si], &s.winners[si]
	if sl.win < 0 || p.Feasible || p.Reason != "" {
		return
	}
	lf := &s.leaves[sl.win]
	if lb, pruned := s.pruned(sl.win, sl.inc); pruned {
		kind := "compute"
		if s.opts.Objective == TimeToAccuracy {
			kind = "time-to-accuracy"
		}
		p.Reason = fmt.Sprintf("pruned: %s lower bound %.4gs exceeds incumbent best %.4gs", kind, lb, sl.inc)
		return
	}
	if p.Reason = s.structural(lf); p.Reason == "" {
		p.Reason = s.overLimit(lf, p.MemoryWords)
	}
}

// run evaluates every leaf across the worker pool, chunk by chunk,
// folds each chunk's plans into their slots' winners, merges the
// per-worker telemetry shards into st, re-evaluates the best in full,
// and labels the infeasible winners.
//
// With bounds enabled on a search of more than one chunk, the leaves are
// visited in ascending lower-bound order (stable on the enumeration
// index): the cheapest-looking candidates evaluate first, so the
// incumbent falls fast and the expensive tail is pruned before pricing. The visit order is a pure
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
	if !s.opts.DisableBounds && n > boundChunk {
		// Structurally infeasible leaves keep lb = 0: they sort to the
		// front, where their (cheap, never-priced) classification cannot
		// delay the incumbent.
		s.lbs = s.lowerBounds()
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
	pool := make([]worker, workers)
	// buf holds one chunk's plans, indexed by visit position − lo.
	buf := make([]Plan, min(boundChunk, n))
	incumbent := math.Inf(1)
	for lo := 0; lo < n; lo += boundChunk {
		hi := min(lo+boundChunk, n)
		if workers == 1 {
			for p := lo; p < hi; p++ {
				buf[p-lo] = s.evalLeaf(order[p], incumbent, &pool[0])
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
				go func(wk *worker) {
					defer wg.Done()
					for {
						p := int(atomic.AddInt64(&next, 1)) - 1
						if p >= hi {
							return
						}
						buf[p-lo] = s.evalLeaf(order[p], incumbent, wk)
					}
				}(&pool[w])
			}
			wg.Wait()
		}
		// Advance the frozen incumbent: chunk boundaries are the only
		// points where pruning decisions may observe new information.
		// The incumbent lives in objective units (iteration seconds, or
		// campaign seconds under TimeToAccuracy), matching the bounds.
		frozen := incumbent
		for p := lo; p < hi; p++ {
			pl := &buf[p-lo]
			if pl.Feasible {
				if c := s.opts.objectiveCost(pl); c < incumbent {
					incumbent = c
				}
			}
			s.fold(order[p], pl, frozen)
		}
	}
	for i := range pool {
		st.merge(pool[i].st)
	}
	// Full records only for the reported best. Every leaf was scored
	// into scratch — a timeline leaf without spans or breakdown, a
	// closed-form leaf without breakdown (or, under Auto, assignment) —
	// so the search's best, unless it was the only leaf, is evaluated
	// once more in full. Evaluation is a pure function of the leaf, so
	// the plan is the scored one plus its Spans, PerLayer, PerResource
	// and Breakdown on the timeline, its Breakdown and Assignment in
	// closed form. The rerun is charged to the simulate phase and counts
	// no candidate or simulation (the first worker's shard is merged
	// already); it reuses that worker's scratch, which no leaf needs any
	// more.
	simStart := time.Now()
	if bi := s.best(nil); bi >= 0 && n > 1 {
		s.winners[bi] = s.evaluate(&s.leaves[s.slots[bi].win], &pool[0], true)
	}
	st.SimulateSeconds += time.Since(simStart).Seconds()
	// The winners leave the search as its reported plans: label the
	// infeasible ones and give each its own copy of the cuts its leaves
	// share with the search's partition.
	for si := range s.slots {
		s.label(si)
		p := &s.winners[si]
		p.Partition = append([]int(nil), p.Partition...)
	}
}

// fold folds leaf i's plan, evaluated against the frozen incumbent inc,
// into its slot's winner. The order is total: feasible before
// infeasible, then (between feasible plans) lower IterSeconds, then
// smaller MicroBatch, then lower leaf index — so the winner does not
// depend on the visit order, and an all-infeasible slot reports its
// first leaf. It also tracks the tightest footprint the memory limit
// rejected.
func (s *search) fold(i int, p *Plan, inc float64) {
	if !p.Feasible && p.MemoryWords > s.opts.MemoryLimitWords && p.MemoryWords < s.tightest {
		// The exact prune condition of the evaluator: a footprint was
		// derived and exceeded the limit.
		s.tightest = p.MemoryWords
	}
	si := s.leaves[i].slot
	if sl, w := &s.slots[si], &s.winners[si]; sl.win < 0 || precedes(p, i, w, sl.win) {
		*w, sl.win, sl.inc = *p, i, inc
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
