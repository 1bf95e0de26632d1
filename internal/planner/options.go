package planner

import (
	"fmt"
	"slices"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/convergence"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// Options configures a planning run. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	Machine machine.Machine
	// Topology, when set (non-zero), prices every collective against the
	// two-level intra-/inter-node machine and the candidate placements
	// instead of the flat Machine (which then only documents the
	// single-level view). A uniform Topology reproduces the flat
	// Machine's numbers to the last bit.
	Topology machine.Topology
	// Placements constrains the rank-placement search on a hierarchical
	// topology; nil searches both. On a flat or uniform topology a
	// placement cannot change any price, so the search keeps only one:
	// the first entry, or row-major when nil.
	Placements []grid.Placement
	Compute    compute.Model
	Mode       Mode
	// Overlap applies the Fig. 8 perfect comm/backprop overlap.
	Overlap bool
	// DatasetN, when > 0, also fills the per-epoch time (×⌈N/B⌉).
	DatasetN int
	// MemoryLimitWords, when > 0, rejects grids whose per-process
	// footprint (Plan.MemoryWords) exceeds the limit — the Section 4
	// remark that "memory consumption optimality might be a legitimate
	// concern depending on the platform and the DNN model size".
	MemoryLimitWords float64
	// AddRedistribution adds the Eq. 6 activation-redistribution cost at
	// every strategy boundary (e.g. the conv→FC transition of Figs. 7 and
	// 10). The paper shows this cost is asymptotically amortized and
	// omits it from the figures; enabling it quantifies the claim.
	AddRedistribution bool
	// MaxPc, when > 0, caps the batch-parallel grid dimension — the
	// Section 4 guidance "if the user decides to limit the maximum
	// allowable batch parallelism in light of accuracy concerns related
	// to large batch sizes": remaining processes must come from the Pr
	// (model/domain) dimension.
	MaxPc int
	// UseTimeline scores each feasible grid with the per-layer
	// event-driven simulator (internal/timeline) under TimelinePolicy
	// instead of the aggregate closed form, making the exposed
	// communication of every candidate grid exact to the per-layer
	// schedule. When false, scoring follows the legacy Overlap flag and
	// planner results are bit-identical to the pre-timeline planner.
	UseTimeline bool
	// TimelinePolicy selects the overlap policy for UseTimeline scoring.
	// The zero value, timeline.PolicyNone, serializes (the Figs. 6/7/9/10
	// baseline); PolicyBackprop generalizes Fig. 8 per layer; PolicyFull
	// models an idealized asynchronous pipeline.
	TimelinePolicy timeline.Policy
	// MicroBatches lists the candidate micro-batch counts M for
	// pipeline-parallel scheduling. Empty means {1}: no pipelining, the
	// legacy single-iteration scoring, bit-identical to the pre-pipeline
	// planner. Entries > 1 score an M-micro-batch schedule via
	// costmodel.Env.PriceStages and StagePricing.Simulate (one stage
	// unless StageCounts asks for more) and require UseTimeline (Optimize
	// rejects them otherwise);
	// candidates that do not divide B or leave a micro-batch thinner
	// than Pc are skipped as infeasible. Each grid reports its best M
	// (Plan.MicroBatch).
	MicroBatches []int
	// Schedule is the pipeline schedule shape used for candidates with
	// M > 1 (timeline.GPipe fill–drain or timeline.OneFOneB). The shape
	// decides the activation stash the memory constraint prices:
	// gpipe stashes all M in-flight micro-batches, 1f1b min(M, S).
	Schedule timeline.Shape
	// StageCounts lists the pipeline stage counts S searched (empty ⇒
	// {1}), keeping the best. S = 1 is inter-batch pipelining on one
	// device group — the natural setting for the paper's grids, where
	// every process executes every layer; S > 1 partitions the
	// weighted-layer list into S contiguous stages, each pricing only its
	// own layers on its own P/S-sized grid at its own rank offset
	// (costmodel.Env.PriceStages), with the inter-stage activation
	// handoffs priced against the topology level each cut crosses. Each
	// S > 1 co-searches the contiguous layer partitions (see
	// MaxPartitions) and the shared per-stage grid over the
	// factorizations of P/S; S values that do not divide P, or exceed the
	// weighted layer count, are reported infeasible. Multi-stage search
	// requires UseTimeline.
	StageCounts []int
	// Partition pins the stage boundaries: cut positions into the
	// weighted-layer list (layer k starts stage when k ∈ Partition),
	// strictly increasing in (0, L). Requires a single searched stage
	// count equal to len(Partition)+1.
	Partition []int
	// MaxPartitions caps the per-stage-count partition enumeration
	// (0 ⇒ DefaultMaxPartitions). Below the cap every contiguous split
	// is priced exhaustively; above it the search falls back to the
	// balanced-compute heuristic and its single-boundary perturbations
	// (stage.Enumerate).
	MaxPartitions int
	// Workers is the number of goroutines evaluating candidates in
	// parallel (0 ⇒ runtime.GOMAXPROCS(0)). Every candidate is a pure
	// function of its inputs and folds into its grid's reported plan
	// under a total order, so the Result — plans, stats, trajectory — is
	// bit-identical for every worker count, including 1; parallelism
	// changes only wall time.
	Workers int
	// Objective selects what the search minimizes: Iteration (the zero
	// value — the paper's per-iteration objective, provably bit-identical
	// to the pre-objective planner) or TimeToAccuracy, which prices every
	// candidate as Curve.Steps(B) × its iteration seconds — the predicted
	// wall clock of the whole training campaign — and unlocks BatchSizes
	// as the outermost search dimension.
	Objective Objective
	// Curve is the steps-to-target model S(B) the TimeToAccuracy
	// objective prices campaigns with (required and validated there,
	// ignored under Iteration). See internal/convergence for the
	// three-regime shape and per-network presets.
	Curve convergence.Curve
	// BatchSizes lists candidate global batch sizes searched as the
	// outermost dimension under the TimeToAccuracy objective (Optimize
	// rejects it under Iteration, where B is fixed by definition). The
	// base B passed to Optimize is always included — it anchors the
	// pure-batch baseline — and the space is searched sorted ascending
	// with duplicates removed. Empty means {B}.
	BatchSizes []int
	// DisableBounds switches off branch-and-bound pruning. With bounds
	// on (the default), a candidate whose monotone compute lower bound
	// already exceeds the best iteration time of earlier search chunks
	// is counted SearchStats.Bounded and reported in Result.All as an
	// unpriced infeasible placeholder instead of being priced and
	// simulated. The winning plan, the pure-batch baseline, and the
	// improvement trajectory are provably identical either way (a
	// pruned candidate always loses to the plan that set the incumbent);
	// disable to get exhaustive per-candidate pricing in Result.All.
	DisableBounds bool
}

// DefaultOptions returns the paper's Table 1 configuration.
func DefaultOptions() Options {
	return Options{
		Machine:  machine.CoriKNL(),
		Compute:  compute.KNLCaffe(),
		Mode:     Auto,
		DatasetN: 1200000,
	}
}

// validate checks the options of a search for batch B on P processes:
// a valid machine and topology, B and P ≥ 1, and option combinations the
// search can honor (pipelined and staged candidates need UseTimeline, a
// pinned partition fixes the one stage count, batch sizes and a curve
// only under TimeToAccuracy).
func (o Options) validate(B, P int) error {
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	if !o.Topology.IsZero() {
		if err := o.Topology.Validate(); err != nil {
			return err
		}
	}
	if B < 1 || P < 1 {
		return fmt.Errorf("planner: need B ≥ 1 and P ≥ 1, got B=%d P=%d", B, P)
	}
	for _, m := range o.MicroBatches {
		if m < 1 {
			return fmt.Errorf("planner: micro-batch candidates must be ≥ 1, got %d", m)
		}
		if m > 1 && !o.UseTimeline {
			return fmt.Errorf("planner: micro-batch candidate M=%d needs UseTimeline (pipeline schedules are scored by the timeline simulator)", m)
		}
	}
	counts := o.stageCounts()
	for _, S := range counts {
		if S < 1 {
			return fmt.Errorf("planner: stage counts must be ≥ 1, got %d", S)
		}
		if S > 1 && !o.UseTimeline {
			return fmt.Errorf("planner: S=%d stages need UseTimeline (stage partitions are scored by the timeline simulator)", S)
		}
	}
	if len(o.Partition) > 0 && (len(counts) != 1 || counts[0] != len(o.Partition)+1) {
		return fmt.Errorf("planner: pinned partition %v implies exactly S=%d, searching %v",
			o.Partition, len(o.Partition)+1, counts)
	}
	if o.Objective != Iteration && o.Objective != TimeToAccuracy {
		return fmt.Errorf("planner: invalid objective %d", int(o.Objective))
	}
	if len(o.BatchSizes) > 0 && o.Objective != TimeToAccuracy {
		return fmt.Errorf("planner: BatchSizes search needs Objective=%v (B is fixed by definition under %v)",
			TimeToAccuracy, o.Objective)
	}
	if o.Objective == TimeToAccuracy {
		if err := o.Curve.Validate(); err != nil {
			return fmt.Errorf("planner: the %v objective needs a steps-to-target model: %w", TimeToAccuracy, err)
		}
	}
	for _, b := range o.BatchSizes {
		if b < 1 {
			return fmt.Errorf("planner: batch-size candidates must be ≥ 1, got %d", b)
		}
	}
	return nil
}

// topology returns the pricing topology: the explicit two-level one
// when set, the flat embedding of Machine otherwise.
func (o Options) topology() machine.Topology {
	if o.Topology.IsZero() {
		return machine.Flat(o.Machine)
	}
	return o.Topology
}

// placements returns the placement search space (see Options.Placements).
func (o Options) placements() []grid.Placement {
	pls := o.Placements
	if len(pls) == 0 {
		pls = grid.Placements()
	}
	if o.Topology.IsZero() || o.Topology.Uniform() {
		return pls[:1]
	}
	return pls
}

// gridPlacements returns the placements grid g is searched under: a
// degenerate grid (Pr = 1 or Pc = 1) maps ranks identically under every
// placement, so only the first of pls.
func gridPlacements(pls []grid.Placement, g grid.Grid) []grid.Placement {
	if g.Pr == 1 || g.Pc == 1 {
		return pls[:1]
	}
	return pls
}

// microBatches returns the micro-batch search space (see
// Options.MicroBatches).
func (o Options) microBatches() []int {
	if len(o.MicroBatches) > 0 {
		return o.MicroBatches
	}
	return []int{1}
}

// stageCounts returns the stage-count search space (see
// Options.StageCounts).
func (o Options) stageCounts() []int {
	if len(o.StageCounts) > 0 {
		return o.StageCounts
	}
	return []int{1}
}

// Batches returns the batch search space: the base B alone under the
// Iteration objective (or when BatchSizes is empty), else the sorted,
// deduplicated union of BatchSizes and {B}.
func (o Options) Batches(B int) []int {
	if o.Objective != TimeToAccuracy || len(o.BatchSizes) == 0 {
		return []int{B}
	}
	bs := append([]int{B}, o.BatchSizes...)
	slices.Sort(bs)
	return slices.Compact(bs)
}

// batchCount returns len(o.Batches(B)) without building the list.
func (o Options) batchCount(B int) int {
	if o.Objective != TimeToAccuracy {
		return 1
	}
	n := 1
	for i, b := range o.BatchSizes {
		if b != B && !slices.Contains(o.BatchSizes[:i], b) {
			n++
		}
	}
	return n
}

// objectiveCost returns the quantity the search minimizes for a feasible
// plan: iteration seconds under Iteration, the campaign's steps ×
// seconds under TimeToAccuracy. Within one batch size the two orderings
// agree (S(B) is a positive constant there); across batch sizes only the
// TimeToAccuracy cost is comparable.
func (o Options) objectiveCost(p *Plan) float64 {
	if o.Objective == TimeToAccuracy {
		return p.TimeToAccuracySeconds
	}
	return p.IterSeconds
}

// DefaultMaxPartitions is the partition-enumeration cap a zero
// Options.MaxPartitions means.
const DefaultMaxPartitions = 64

// maxPartitions returns the partition-enumeration cap (see
// Options.MaxPartitions).
func (o Options) maxPartitions() int {
	if o.MaxPartitions > 0 {
		return o.MaxPartitions
	}
	return DefaultMaxPartitions
}

// layerComputeCosts returns the per-weighted-layer training FLOPs — the
// grid-independent weights the partition enumeration balances.
func layerComputeCosts(net *nn.Network) []float64 {
	widx := net.WeightedLayers()
	costs := make([]float64, len(widx))
	for k, li := range widx {
		costs[k] = net.Layers[li].TrainFLOPsPerSample()
	}
	return costs
}

// partitionsFrom returns the candidate stage partitions for S stages:
// the pinned Options.Partition when set, else stage.Enumerate over the
// per-layer compute costs (layerComputeCosts, derived once per search).
func (o Options) partitionsFrom(costs []float64, S int) ([]stage.Partition, error) {
	L := len(costs)
	if S > L {
		return nil, fmt.Errorf("planner: S=%d stages exceed the network's %d weighted layers", S, L)
	}
	if len(o.Partition) > 0 {
		p, err := stage.FromCuts(o.Partition, L)
		if err != nil {
			return nil, err
		}
		if p.Stages() != S {
			return nil, fmt.Errorf("planner: pinned partition has %d stages, searching S=%d", p.Stages(), S)
		}
		return []stage.Partition{p}, nil
	}
	return stage.Enumerate(costs, S, o.maxPartitions()), nil
}

// Space is the shape of a search at one stage count, counted without
// enumerating it: each of BatchSizes batch sizes searches Grids per-stage
// grids, GridPlacements (grid, placement) pairs between them, and each
// pair Partitions × MicroBatches leaves.
type Space struct {
	Partitions     int
	Grids          int
	GridPlacements int
	MicroBatches   int
	BatchSizes     int
}

// leaves returns the number of leaves the space enumerates.
func (sp Space) leaves() int {
	return sp.Partitions * sp.GridPlacements * sp.MicroBatches * sp.BatchSizes
}

// Space returns the shape of the search at S stages for batch B on P
// processes — Optimize's when pinned is nil, else Evaluate's, whose every
// stage runs the pinned grid. It is O(√P) and allocation-free. Partitions
// is 1 at S = 1 and for a pinned cut list, else stage.Candidates: the
// exact count where the partition walk is exhaustive, an upper bound on
// the heuristic neighborhood beyond MaxPartitions.
func (o *Options) Space(net *nn.Network, B, P, S int, pinned *grid.Grid) Space {
	parts := 1
	if S > 1 && len(o.Partition) == 0 {
		parts = stage.Candidates(len(net.WeightedLayers()), S, o.maxPartitions())
	}
	return o.space(B, P, S, parts, pinned)
}

// space is Space with the partition count given: enumerate passes the
// number of partitions it has enumerated.
func (o *Options) space(B, P, S, parts int, pinned *grid.Grid) Space {
	sp := Space{Partitions: parts, MicroBatches: len(o.microBatches()), BatchSizes: o.batchCount(B)}
	pls := o.placements()
	add := func(g grid.Grid) {
		sp.Grids++
		sp.GridPlacements += len(gridPlacements(pls, g))
	}
	switch {
	case pinned != nil:
		add(*pinned)
	case P%S == 0:
		// The divisor pairs of grid.Factorizations, in any order.
		q := P / S
		for pr := 1; pr*pr <= q; pr++ {
			if q%pr == 0 {
				add(grid.Grid{Pr: pr, Pc: q / pr})
				if pr != q/pr {
					add(grid.Grid{Pr: q / pr, Pc: pr})
				}
			}
		}
	}
	return sp
}
