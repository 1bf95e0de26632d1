// Pipeline pricing: one full M-micro-batch iteration against the
// environment's topology. The paper's Eqs. 3–9 (and the single-iteration
// timeline built on them) price exactly one bulk-synchronous iteration;
// splitting the global batch B into M micro-batches of B/M and streaming
// them through a timeline.Schedule exposes the regime the closed forms
// cannot see — inter-batch pipelining hides communication no
// intra-iteration overlap policy can, at the price of the α-term penalty
// of B/M-sized messages and the activation stash of in-flight
// micro-batches (see the local-updates line of work in PAPERS.md).
//
// Each of the S pipeline stages owns a contiguous slice of the network's
// weighted layers and prices only those layers, on its own grid, at its
// own position in the machine — the real resource model of
// pipeline-parallel training:
//
//   - stage k's collectives run on stage k's rank block — a contiguous
//     run of machine ranks starting where stage k−1's block ends — so a
//     hierarchical topology prices each stage's groups against the
//     nodes/racks the block actually occupies (Env.pricerAt);
//   - the activation handoff at each stage boundary is a point-to-point
//     transfer priced against the topology level the boundary crosses:
//     a cut between two ranks on one node pays node bandwidth, a cut
//     straddling racks pays the spine — placement decides;
//   - gradient accumulation is explicit: each micro-batch's backward
//     pays the local accumulation pass (the update term of
//     compute.GridLayerTimes) and the iteration pays one flush update
//     after the deferred ∆W all-reduce (StagePipelineCost.FlushSeconds).
//
// S = 1 is inter-batch pipelining on one device group: one stage at
// offset 0, no handoffs, every layer priced with Env.FullIntegrated's
// loop and timed with compute.GridLayerTimes' arithmetic, residual
// included — at M = 1 the iteration is the paper's single bulk-synchronous
// iteration bit for bit (property-tested), so the planner scores every
// timeline candidate, M = 1 and S = 1 too, as one PriceStages, which
// resolves Cheapest layers on each stage's own block and derives the
// stash column and the tightest footprint from one MemoryStages.
package costmodel

import (
	"fmt"
	"math"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// StageCost summarizes one pipeline stage of a stage-partitioned plan —
// the per-stage table of dnnplan/dnnsim.
type StageCost struct {
	// Stage is the stage index, 0-based.
	Stage int
	// FirstLayer/LastLayer are the stage's layer slice as indices into
	// Network.Layers (both inclusive, weighted layers only).
	FirstLayer, LastLayer int
	// Layers is the number of weighted layers in the stage.
	Layers int
	// Grid is the stage's Pr × Pc process grid and RankOffset the machine
	// rank its block starts at (stage blocks are consecutive).
	Grid       grid.Grid
	RankOffset int
	// ParamWords is the total (unsharded) weight words of the stage's
	// layers.
	ParamWords float64
	// CompSeconds is the stage's per-micro-batch forward+backward compute.
	CompSeconds float64
	// CommSeconds is the stage's per-micro-batch Eq. 3–9 collective
	// seconds (all-gathers, all-reduces, halos — not the boundary
	// handoff).
	CommSeconds float64
	// StashWords is the per-process activation stash high-water mark:
	// the stage's per-micro-batch activation footprint times the
	// schedule's in-flight micro-batch count for this stage.
	StashWords float64
	// BoundaryWords is the per-micro-batch activation volume handed into
	// this stage from the previous one (0 for stage 0); BoundarySeconds
	// prices the forward handoff plus the backward ∆X return, and
	// BoundaryLevel/BoundaryLevelName attribute it to the topology level
	// the cut crosses ("" on a flat machine).
	BoundaryWords     float64
	BoundarySeconds   float64
	BoundaryLevel     int
	BoundaryLevelName string
}

// StagePipelineCost is one priced stage-partitioned pipeline iteration.
type StagePipelineCost struct {
	// Result is the simulated schedule: per-stage lanes, boundary
	// handoffs, makespan, bubble.
	Result *timeline.Result
	// Breakdown concatenates the per-stage per-MICRO-BATCH collective
	// costs in layer order (each layer priced on its own stage's grid at
	// its stage's rank offset).
	Breakdown *Breakdown
	// Stages is the per-stage summary table, Partition the layer split
	// it describes (indices into the weighted-layer list).
	Stages    []StageCost
	Partition stage.Partition
	// Overhead is the unsimulated residual: fixed framework cost, per-
	// micro-batch unweighted compute, and the flush update.
	Overhead float64
	// FlushSeconds is the post-flush SGD weight update included in
	// Overhead: with M > 1 the per-micro-batch update term of
	// compute.GridLayerTimes models the local gradient *accumulation*,
	// and the real weight update runs once after the deferred ∆W
	// all-reduce — one more pass over the local weight shard at
	// UpdateRate, un-overlappable. Zero at M = 1, where the
	// per-micro-batch term is the update itself.
	FlushSeconds float64
}

// IterSeconds is the priced iteration time: schedule makespan plus the
// unsimulated overhead.
func (sc StagePipelineCost) IterSeconds() float64 { return sc.Result.Makespan + sc.Overhead }

// validatePipeline checks the (B, M, grid) combination: micro-batches
// must tile the global batch exactly and still feed every grid column at
// least one sample.
func validatePipeline(B int, g grid.Grid, sched timeline.Schedule) error {
	M := sched.MicroBatches
	if M < 1 {
		return fmt.Errorf("costmodel: need ≥ 1 micro-batch, got M=%d", M)
	}
	if B%M != 0 {
		return fmt.Errorf("costmodel: micro-batch count M=%d does not divide batch size B=%d", M, B)
	}
	if micro := B / M; micro < g.Pc {
		return fmt.Errorf("costmodel: micro-batch size B/M=%d is thinner than Pc=%d (one sample per grid column)", micro, g.Pc)
	}
	return nil
}

// BoundaryLevel returns the topology level a cut between adjacent
// machine ranks a and b crosses: the innermost level whose groups
// contain both. On a flat (depth-1) topology this is 0.
func BoundaryLevel(t machine.Topology, a, b int) int {
	lvl := 0
	for lvl < t.Depth()-1 && t.GroupOf(a, lvl) != t.GroupOf(b, lvl) {
		lvl++
	}
	return lvl
}

// StageIteration prices one M-micro-batch, S-stage pipelined iteration
// of net at global batch B. part splits the weighted-layer list into S
// contiguous stages; grids[k] is stage k's process grid, its rank block
// starting where stage k−1's ends. Each stage's layers are priced with
// the Eq. 3–9 machinery on the stage's own grid at the stage's own rank
// offset; boundary handoffs are point-to-point transfers priced against
// the topology level each cut crosses; the whole event graph runs
// through timeline.SimulatePipeline under the given policy and schedule
// shape (sched.Stages and sched.Partition are derived from part, so
// callers set only Shape and MicroBatches). It is PriceStages followed
// by one StagePricing.Simulate with spans.
//
// Accounting choices, in words:
//   - every communication term is re-derived at micro-batch size B/M,
//     and the per-layer compute is split at micro-batch GEMM efficiency
//     (smaller local GEMMs run less efficiently — the micro-batching tax
//     on the compute side);
//   - the ∆W all-reduce is deferred to the flush (one collective per
//     layer per iteration, issued with the last micro-batch's backprop);
//   - the per-micro-batch weight-update term of compute.GridLayerTimes
//     models the local gradient *accumulation* across micro-batches
//     (same read-modify-write traffic as an update), so backward compute
//     stays comparable across M;
//   - compute.Model.FixedIter is paid once per iteration, while the
//     unweighted-layer compute (pooling etc.) recurs per micro-batch.
func (e Env) StageIteration(net *nn.Network, B int, part stage.Partition, grids []grid.Grid,
	assign Assignment, cm compute.Model, policy timeline.Policy, sched timeline.Schedule) (StagePipelineCost, error) {
	sp, err := e.PriceStages(net, B, part, grids, assign, cm, sched)
	if err != nil {
		return StagePipelineCost{}, err
	}
	return sp.Simulate(policy, true)
}

// StagePricing is a priced, not yet scheduled, stage-partitioned
// iteration: the timeline input and everything StageIteration reports
// besides the schedule.
type StagePricing struct {
	// StagePipelineCost is the priced iteration with a nil Result.
	StagePipelineCost
	// Layers is the per-micro-batch timeline input, boundary handoffs
	// included; Schedule is the caller's with Stages and Partition
	// derived from the partition.
	Layers   []timeline.Layer
	Schedule timeline.Schedule
	// Assignment is the caller's map, or Breakdown.Assignment() when it
	// requested Cheapest; MemoryWords the tightest stage's MemoryStages
	// footprint under it.
	Assignment  Assignment
	MemoryWords float64
}

// Simulate schedules the priced iteration under policy:
// timeline.SimulatePipeline when spans is set, else timeline.Score,
// whose Result carries the same aggregates without spans or per-layer
// and per-lane statistics.
func (sp StagePricing) Simulate(policy timeline.Policy, spans bool) (StagePipelineCost, error) {
	run := timeline.Score
	if spans {
		run = timeline.SimulatePipeline
	}
	res, err := run(sp.Layers, policy, sp.Schedule)
	if err != nil {
		return StagePipelineCost{}, err
	}
	sc := sp.StagePipelineCost
	sc.Result = res
	return sc, nil
}

// PriceStages is StageIteration's pricing half: the Eq. 3–9 terms of
// every stage's layers on the stage's own grid and rank offset (Cheapest
// resolved there), the per-layer compute split, the boundary handoffs,
// the stage table, the per-process footprint and the unsimulated
// overhead — everything but the schedule.
func (e Env) PriceStages(net *nn.Network, B int, part stage.Partition, grids []grid.Grid,
	assign Assignment, cm compute.Model, sched timeline.Schedule) (StagePricing, error) {
	widx := net.WeightedLayers()
	if err := part.Validate(); err != nil {
		return StagePricing{}, err
	}
	if part.L != len(widx) {
		return StagePricing{}, fmt.Errorf("costmodel: partition covers %d layers, network has %d weighted layers", part.L, len(widx))
	}
	S := part.Stages()
	if len(grids) != S {
		return StagePricing{}, fmt.Errorf("costmodel: %d stage grids for %d stages", len(grids), S)
	}
	sched.Stages = S
	sched.Partition = part.Starts
	for k, g := range grids {
		if err := validatePipeline(B, g, sched); err != nil {
			return StagePricing{}, fmt.Errorf("stage %d: %w", k, err)
		}
	}
	M := sched.MicroBatches
	micro := B / M

	// Stage rank blocks are consecutive: stage k occupies machine ranks
	// [offsets[k], offsets[k]+grids[k].P()).
	offsets := make([]int, S)
	for k := 1; k < S; k++ {
		offsets[k] = offsets[k-1] + grids[k-1].P()
	}

	// Per-layer collective pricing, each stage on its own grid at its own
	// offset. At S = 1 this is exactly FullIntegrated (same loop). Within
	// a stage, a layer class is priced and timed once (LayerClasses).
	class := net.LayerClasses()
	var cheapest bool
	b := e.newBreakdown(len(widx))
	times := make([]compute.LayerTime, 0, len(widx))
	stages := make([]StageCost, S)
	for k := 0; k < S; k++ {
		lo, hi := part.Bounds(k)
		g := grids[k]
		pr := e.pricerAt(g, offsets[k])
		sc := &stages[k]
		sc.Stage = k
		sc.FirstLayer = widx[lo]
		sc.LastLayer = widx[hi-1]
		sc.Layers = hi - lo
		sc.Grid = g
		sc.RankOffset = offsets[k]
		// A stage-first Model layer still pays the ∆X all-reduce: its
		// assembled ∆X is what the backward handoff ships to the previous
		// stage.
		cheapest = priceLayers(b, net, lo, hi, micro, &pr, assign) || cheapest
		for j := lo; j < hi; j++ {
			li := widx[j]
			sc.CommSeconds += b.Layers[j].TotalSeconds()
			sc.ParamWords += float64(net.Layers[li].Weights())

			// r is the first position of j's class in this stage.
			r := max(class[j], lo)
			for class[r] != class[j] {
				r++
			}
			var t compute.LayerTime
			if r < j {
				t = times[r]
				t.Index = li
			} else {
				t = cm.GridLayerTime(&net.Layers[li], li, micro, g)
			}
			times = append(times, t)
			sc.CompSeconds += t.Fwd + t.Bwd
		}
	}

	// The stash is each stage's activation footprint times its in-flight
	// micro-batch count; the tightest stage governs feasibility.
	resolved := assign
	if cheapest {
		resolved = b.Assignment()
	}
	var memoryWords float64
	for k, m := range MemoryStages(net, B, part, grids, resolved, sched) {
		stages[k].StashWords = m.ActivationWords
		memoryWords = math.Max(memoryWords, m.TotalWords())
	}

	// Unsimulated overhead: fixed cost once, unweighted layers once per
	// micro-batch on their owning stage's grid (the stage of the nearest
	// preceding weighted layer), flush update once. The accumulation
	// mirrors GridLayerTimes term for term so S = 1 reproduces its float
	// arithmetic exactly.
	ov := cm.FixedIter
	wpos := 0
	owner := 0
	for i := range net.Layers {
		l := &net.Layers[i]
		if l.HasWeights() {
			owner = part.StageOf(wpos)
			wpos++
			continue
		}
		ov += cm.GridUnweightedTime(l, micro, grids[owner])
	}
	// The flush update is one UpdateRate pass over each layer's local
	// weight shard, sharded by its own stage's grid, in forward order.
	var flush float64
	if M > 1 {
		for k, li := range widx {
			flush += cm.UpdateTime(float64(net.Layers[li].Weights()) / float64(grids[part.StageOf(k)].Pr))
		}
	}

	// Boundary handoffs: per micro-batch, the receiving stage's first
	// layer pulls its input activations (micro × d_in words) across the
	// cut, and returns the same-shaped ∆X on the way back. The cut's
	// level is where the two adjacent rank blocks part ways in the
	// hierarchy.
	tl := TimelineLayers(b, times)
	levelNames := e.Topo.LevelNames()
	for k := 1; k < S; k++ {
		lo := part.Starts[k]
		li := widx[lo]
		words := float64(micro) * float64(net.Layers[li].InSize())
		sc := &stages[k]
		sc.BoundaryWords = words
		if e.Flat() {
			c := collective.PointToPoint(words, e.Topo.Machine())
			tl[lo].FwdXfer = c.Total()
			tl[lo].BwdXfer = c.Total()
		} else {
			lvl := BoundaryLevel(e.Topo, offsets[k]-1, offsets[k])
			c := collective.PointToPointTopo(lvl, words, e.Topo)
			tl[lo].FwdXfer = c.Total()
			tl[lo].BwdXfer = c.Total()
			tl[lo].XferLevel = lvl
			sc.BoundaryLevel = lvl
			if lvl < len(levelNames) {
				sc.BoundaryLevelName = levelNames[lvl]
			}
		}
		sc.BoundarySeconds = tl[lo].FwdXfer + tl[lo].BwdXfer
	}

	// At M = 1 the residual is paid exactly as GridLayerTimes sums it:
	// FixedIter + (ov − FixedIter) rounds away from ov once ov exceeds
	// 2·FixedIter.
	overhead := ov
	if M > 1 {
		overhead = cm.FixedIter + float64(M)*(ov-cm.FixedIter) + flush
	}
	return StagePricing{
		StagePipelineCost: StagePipelineCost{
			Breakdown:    b,
			Stages:       stages,
			Partition:    part,
			Overhead:     overhead,
			FlushSeconds: flush,
		},
		Layers:      tl,
		Schedule:    sched,
		Assignment:  resolved,
		MemoryWords: memoryWords,
	}, nil
}

// MemoryStages estimates each stage's per-process footprint under a
// stage-partitioned pipeline: stage k holds only its own layers' weights
// and gradients (sharded by its own grid) and stashes its in-flight
// micro-batches' activations. The planner prunes on the maximum over
// stages (StagePricing.MemoryWords) — the tightest process governs
// feasibility.
func MemoryStages(net *nn.Network, B int, part stage.Partition, grids []grid.Grid,
	assign Assignment, sched timeline.Schedule) []MemoryEstimate {
	M := sched.MicroBatches
	if M < 1 || B%M != 0 {
		panic(fmt.Sprintf("costmodel: MemoryStages needs a micro-batch count dividing B, got M=%d B=%d", M, B))
	}
	sched.Stages = part.Stages()
	widx := net.WeightedLayers()
	out := make([]MemoryEstimate, part.Stages())
	for k := range out {
		lo, hi := part.Bounds(k)
		m := memoryLayers(net, B/M, grids[k], assign, widx[lo:hi])
		m.ActivationWords *= float64(stageInFlight(sched, k))
		out[k] = m
	}
	return out
}
