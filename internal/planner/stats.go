package planner

import (
	"fmt"
	"strings"

	"dnnparallel/internal/grid"
)

// Improvement is one best-cost improvement event during Optimize: the
// moment a candidate beat every configuration seen before it. The
// sequence is deterministic for a given scenario (the search order is
// fixed), so it is safe to compare results structurally.
type Improvement struct {
	Grid        string         `json:"grid"`
	Placement   grid.Placement `json:"placement"`
	MicroBatch  int            `json:"micro_batch"`
	Stages      int            `json:"stages,omitempty"`
	Partition   []int          `json:"partition,omitempty"`
	IterSeconds float64        `json:"iter_seconds"`
	// Batch and TTASeconds extend the trajectory under the
	// TimeToAccuracy objective: the candidate's global batch size and
	// its campaign cost S(B) × IterSeconds — the quantity that actually
	// improved. Zero (and omitted from JSON) under Iteration.
	Batch      int     `json:"batch,omitempty"`
	TTASeconds float64 `json:"tta_seconds,omitempty"`
}

// SearchStats is the planner's search telemetry, populated by Optimize:
// how many candidate configurations the search over grids × placements ×
// partitions × micro-batches visited, where they were pruned, and where
// the wall time went. The counts reconcile exactly:
//
//	Candidates = Priced + InfeasiblePruned + MemoryPruned + Bounded
//
// (every candidate either fails a structural constraint, fails the
// memory limit, is cut off by a branch-and-bound lower bound, or gets a
// full Eq. 3–9 pricing), and the phase split bounds the wall clock:
//
//	EnumerateSeconds + PriceSeconds + SimulateSeconds ≤ WallSeconds
//
// EnumerateSeconds is measured directly around the candidate-generation
// phase (work lists, memoized lower-bound compute aggregates, partition
// enumeration);
// PriceSeconds and SimulateSeconds are summed across the evaluation
// workers and, when that cpu-time sum exceeds the evaluation phase's
// wall clock (Options.Workers > 1), scaled down onto it so the split
// stays a wall-clock attribution. The slack is the slot fold and loop
// bookkeeping. For every timeline candidate the Eq. 3–9 pricing at
// micro-batch size B/M (costmodel.Env.PriceStages; B itself at M = 1)
// is accounted to PriceSeconds and only the schedule to SimulateSeconds.
// Leaves are scored without spans; the one re-simulation with spans of
// each reported slot winner is charged to SimulateSeconds too, and
// counts toward no candidate counter.
//
// All counts and the improvement trajectory are deterministic — they do
// not depend on the worker count.
type SearchStats struct {
	// GridsEnumerated is the number of Pr × Pc factorizations examined
	// across every stage count (of P for single-stage search, of the
	// per-stage process count P/S for S > 1).
	GridsEnumerated int `json:"grids_enumerated"`
	// StageCountsSearched is the number of pipeline stage counts S the
	// search examined (1 unless Options.StageCounts widens it).
	StageCountsSearched int `json:"stage_counts_searched"`
	// BatchSizesSearched is the number of global batch sizes the search
	// examined (1 unless a TimeToAccuracy Options.BatchSizes widens it).
	// Grid and candidate counts below are totals across the batch sweep.
	BatchSizesSearched int `json:"batch_sizes_searched,omitempty"`
	// PartitionsEnumerated is the total number of candidate contiguous
	// layer→stage partitions generated across the multi-stage counts
	// (0 for a purely single-stage search).
	PartitionsEnumerated int `json:"partitions_enumerated,omitempty"`
	// Candidates is the number of (stage count, grid, placement,
	// partition, micro-batch) tuples examined.
	Candidates int `json:"candidates"`
	// StageCandidates is the subset of Candidates with more than one
	// pipeline stage; they flow through the same Priced/
	// InfeasiblePruned/MemoryPruned buckets, so the reconciliation
	// identity is unchanged.
	StageCandidates int `json:"stage_candidates,omitempty"`
	// InfeasiblePruned counts candidates rejected by a structural
	// constraint (Pc > B, conv-batch with P > B, domain height, MaxPc,
	// micro-batch divisibility) before any pricing.
	InfeasiblePruned int `json:"infeasible_pruned"`
	// MemoryPruned counts candidates rejected by the per-process memory
	// limit after their footprint was derived.
	MemoryPruned int `json:"memory_pruned"`
	// Bounded counts candidates skipped by branch-and-bound: their
	// monotone compute-only lower bound (plus the unavoidable ∆W
	// all-reduce floor in the non-overlapped closed form) already
	// exceeded the best iteration time found in earlier search chunks,
	// so they were never priced or simulated. Always 0 with
	// Options.DisableBounds, and pruning never changes Result.Best or
	// PureBatch — only which losing candidates carry full pricing detail
	// in Result.All, and with them any merely-intermediate entries of
	// the improvement trajectory (it stays a subsequence of the
	// exhaustive one ending on the same winner).
	Bounded int `json:"bounded,omitempty"`
	// Priced counts candidates that received a full Eq. 3–9 pricing.
	Priced int `json:"priced"`
	// TimelineSimulated counts the discrete-event simulator runs among
	// the priced candidates (every timeline leaf, whatever M and S) — one
	// per scored leaf; the winners' re-simulation with spans is not
	// counted.
	TimelineSimulated int `json:"timeline_simulated"`

	// Improvements is the best-cost trajectory: every candidate that
	// became the incumbent best, in search order. The last entry is the
	// returned Result.Best.
	Improvements []Improvement `json:"improvements,omitempty"`

	// EnumerateSeconds, PriceSeconds, and SimulateSeconds split
	// WallSeconds (the full Optimize duration) into phases; see the
	// struct comment for the decomposition.
	EnumerateSeconds float64 `json:"enumerate_seconds"`
	PriceSeconds     float64 `json:"price_seconds"`
	SimulateSeconds  float64 `json:"simulate_seconds"`
	WallSeconds      float64 `json:"wall_seconds"`
}

// Reconciles reports whether the candidate counts add up (see the
// struct comment); a false return is a planner accounting bug.
func (s SearchStats) Reconciles() bool {
	return s.Candidates == s.Priced+s.InfeasiblePruned+s.MemoryPruned+s.Bounded
}

// merge folds one evaluation worker's telemetry shard into s. Only the
// additive per-candidate counters and cpu-time accumulators are merged;
// enumeration-side counts (grids, stage counts, partitions), the
// improvement trajectory, and the wall split stay owned by the serial
// phases of Optimize.
func (s *SearchStats) merge(o SearchStats) {
	s.Candidates += o.Candidates
	s.StageCandidates += o.StageCandidates
	s.InfeasiblePruned += o.InfeasiblePruned
	s.MemoryPruned += o.MemoryPruned
	s.Bounded += o.Bounded
	s.Priced += o.Priced
	s.TimelineSimulated += o.TimelineSimulated
	s.PriceSeconds += o.PriceSeconds
	s.SimulateSeconds += o.SimulateSeconds
}

// ZeroTimes returns a copy with the wall-clock fields cleared, leaving
// only the deterministic counts and improvement trajectory — the form
// two runs of the same scenario can be compared with reflect.DeepEqual.
func (s SearchStats) ZeroTimes() SearchStats {
	s.EnumerateSeconds, s.PriceSeconds, s.SimulateSeconds, s.WallSeconds = 0, 0, 0, 0
	return s
}

// String renders the telemetry as a short human-readable block (the
// dnnplan -stats output).
func (s SearchStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "search: %d grids, %d candidates (%d priced, %d infeasible, %d memory-pruned, %d simulated)\n",
		s.GridsEnumerated, s.Candidates, s.Priced, s.InfeasiblePruned, s.MemoryPruned, s.TimelineSimulated)
	if s.Bounded > 0 {
		fmt.Fprintf(&b, "bounds: %d candidates cut by compute lower bound before pricing\n", s.Bounded)
	}
	if s.StageCountsSearched > 1 || s.PartitionsEnumerated > 0 {
		fmt.Fprintf(&b, "stages: %d stage counts, %d partitions, %d stage candidates\n",
			s.StageCountsSearched, s.PartitionsEnumerated, s.StageCandidates)
	}
	if s.BatchSizesSearched > 1 {
		fmt.Fprintf(&b, "batch:  %d global batch sizes searched\n", s.BatchSizesSearched)
	}
	fmt.Fprintf(&b, "wall:   %.3gs = enumerate %.3gs + price %.3gs + simulate %.3gs\n",
		s.WallSeconds, s.EnumerateSeconds, s.PriceSeconds, s.SimulateSeconds)
	if len(s.Improvements) > 0 {
		fmt.Fprintf(&b, "best-cost trajectory (%d improvements):\n", len(s.Improvements))
		for _, im := range s.Improvements {
			fmt.Fprintf(&b, "  %-8s %-9s M=%-3d ", im.Grid, im.Placement, im.MicroBatch)
			if im.Batch > 0 {
				fmt.Fprintf(&b, "B=%-5d ", im.Batch)
			}
			if im.Stages > 1 {
				fmt.Fprintf(&b, "S=%d cuts=%v ", im.Stages, im.Partition)
			}
			fmt.Fprintf(&b, "iter=%.4gs", im.IterSeconds)
			if im.TTASeconds > 0 {
				fmt.Fprintf(&b, " tta=%.4gs", im.TTASeconds)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}
