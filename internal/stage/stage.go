// Package stage defines contiguous layer→stage partitions for
// pipeline-parallel training and their search space.
//
// A Partition slices a forward-ordered layer list into S contiguous,
// non-empty stages — the assignment regime of stage-partitioned
// ("pipeline model parallel") training, where each worker group owns a
// layer slice and activations are handed off at the S−1 boundaries.
// The package is pure combinatorics: it knows layer counts and
// per-layer weights (compute seconds, FLOPs — any non-negative cost),
// not networks or grids, so costmodel and planner can share one
// partition vocabulary without a dependency cycle.
//
// The search space of contiguous partitions is the compositions of L
// into S parts, C(L−1, S−1) of them. Enumerate walks it exhaustively
// when it is small (a configurable cap) and falls back to a heuristic
// neighborhood — the balanced-compute partition, the count-balanced
// one, and every single-boundary shift of the balanced-compute
// boundaries — when it is not. The balanced-compute partition (minimal
// maximum stage weight, the classic linear-partition problem) always
// comes first, so a searcher that keeps the earliest tie is anchored on
// the sensible default.
package stage

import (
	"fmt"
	"sort"
	"strings"
)

// Partition is a contiguous assignment of L layers to S stages.
// Stage k owns layers Starts[k] … Starts[k+1]−1 (the last stage runs
// through L−1). The zero value is invalid; build one with New,
// FromCuts, Balanced, BalancedCompute, or Enumerate.
type Partition struct {
	// Starts lists each stage's first layer index: Starts[0] == 0,
	// strictly increasing, every entry < L. len(Starts) is the stage
	// count S.
	Starts []int
	// L is the number of layers partitioned.
	L int
}

// New builds and validates a partition from stage start indices.
func New(starts []int, L int) (Partition, error) {
	p := Partition{Starts: starts, L: L}
	if err := p.Validate(); err != nil {
		return Partition{}, err
	}
	return p, nil
}

// FromCuts builds a partition from its S−1 interior boundaries: cut c
// means a new stage begins at layer c. This is the user-facing spelling
// (the scenario JSON `partition` list).
func FromCuts(cuts []int, L int) (Partition, error) {
	starts := make([]int, 0, len(cuts)+1)
	starts = append(starts, 0)
	starts = append(starts, cuts...)
	return New(starts, L)
}

// Stages returns the stage count S.
func (p Partition) Stages() int { return len(p.Starts) }

// Cuts returns the S−1 interior boundaries (Starts without the leading
// zero) — the inverse of FromCuts.
func (p Partition) Cuts() []int {
	if len(p.Starts) <= 1 {
		return nil
	}
	return append([]int(nil), p.Starts[1:]...)
}

// StageOf returns the stage owning layer i.
func (p Partition) StageOf(i int) int {
	if i < 0 || i >= p.L {
		panic(fmt.Sprintf("stage: layer %d outside [0,%d)", i, p.L))
	}
	// The last start ≤ i. sort.SearchInts finds the first start > i.
	return sort.SearchInts(p.Starts, i+1) - 1
}

// Bounds returns stage k's layer range [lo, hi).
func (p Partition) Bounds(k int) (lo, hi int) {
	if k < 0 || k >= len(p.Starts) {
		panic(fmt.Sprintf("stage: stage %d outside [0,%d)", k, len(p.Starts)))
	}
	lo = p.Starts[k]
	hi = p.L
	if k+1 < len(p.Starts) {
		hi = p.Starts[k+1]
	}
	return lo, hi
}

// Size returns the number of layers in stage k.
func (p Partition) Size(k int) int {
	lo, hi := p.Bounds(k)
	return hi - lo
}

// Validate checks the partition invariants: at least one stage, no
// empty stage, starts strictly increasing from 0, all inside [0, L).
func (p Partition) Validate() error {
	if p.L < 1 {
		return fmt.Errorf("stage: partition needs ≥ 1 layer, got L=%d", p.L)
	}
	if len(p.Starts) == 0 {
		return fmt.Errorf("stage: partition needs ≥ 1 stage")
	}
	if len(p.Starts) > p.L {
		return fmt.Errorf("stage: %d stages exceed %d layers (a stage cannot be empty)", len(p.Starts), p.L)
	}
	if p.Starts[0] != 0 {
		return fmt.Errorf("stage: first stage must start at layer 0, got %d", p.Starts[0])
	}
	for k := 1; k < len(p.Starts); k++ {
		if p.Starts[k] <= p.Starts[k-1] {
			return fmt.Errorf("stage: starts must be strictly increasing, got %v", p.Starts)
		}
		if p.Starts[k] >= p.L {
			return fmt.Errorf("stage: start %d outside the %d-layer list", p.Starts[k], p.L)
		}
	}
	return nil
}

// Equal reports whether two partitions slice the same layer list the
// same way.
func (p Partition) Equal(q Partition) bool {
	if p.L != q.L || len(p.Starts) != len(q.Starts) {
		return false
	}
	for i := range p.Starts {
		if p.Starts[i] != q.Starts[i] {
			return false
		}
	}
	return true
}

// String renders the partition as its stage ranges, e.g. "0-3|4-6|7-9".
func (p Partition) String() string {
	var b strings.Builder
	for k := range p.Starts {
		lo, hi := p.Bounds(k)
		if k > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d-%d", lo, hi-1)
	}
	return b.String()
}

// Balanced returns the count-balanced partition of L layers into S
// stages: layer i belongs to stage ⌊i·S/L⌋, i.e. stage k starts at
// ⌈k·L/S⌉ — exactly the implicit partition the timeline scheduler used
// before partitions became explicit.
func Balanced(L, S int) Partition {
	if S < 1 || S > L {
		panic(fmt.Sprintf("stage: Balanced needs 1 ≤ S ≤ L, got S=%d L=%d", S, L))
	}
	starts := make([]int, S)
	for k := range starts {
		starts[k] = (k*L + S - 1) / S
	}
	return Partition{Starts: starts, L: L}
}

// BalancedCompute returns the partition of len(costs) layers into S
// stages minimizing the maximum per-stage cost sum — the linear
// partition problem, solved by binary search over the bottleneck value
// with a greedy feasibility check. Ties (several optimal partitions)
// resolve deterministically: each stage takes as many layers as fit
// under the optimal bottleneck while leaving one layer per remaining
// stage, which front-loads work the way a fill–drain pipeline prefers.
// Costs must be non-negative.
func BalancedCompute(costs []float64, S int) Partition {
	L := len(costs)
	if S < 1 || S > L {
		panic(fmt.Sprintf("stage: BalancedCompute needs 1 ≤ S ≤ len(costs), got S=%d L=%d", S, L))
	}
	var total, max float64
	for i, c := range costs {
		if c < 0 {
			panic(fmt.Sprintf("stage: negative layer cost %g at %d", c, i))
		}
		total += c
		if c > max {
			max = c
		}
	}
	// fits reports whether the layers split into ≤ S contiguous chunks
	// of sum ≤ cap each (always leaving enough layers for the remaining
	// stages).
	fits := func(cap float64) bool {
		chunks, sum := 1, 0.0
		for _, c := range costs {
			if sum+c > cap {
				chunks++
				sum = c
				if chunks > S {
					return false
				}
			} else {
				sum += c
			}
		}
		return true
	}
	// Binary search the bottleneck in [max(max, total/S), total].
	lo, hi := max, total
	if t := total / float64(S); t > lo {
		lo = t
	}
	for i := 0; i < 64 && hi-lo > 1e-12*(1+hi); i++ {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Greedy layout under the found bottleneck. Float slack: hi is
	// feasible by construction of the loop invariant (fits(total) holds).
	starts := make([]int, 0, S)
	starts = append(starts, 0)
	sum := 0.0
	for i := 0; i < L; i++ {
		remainingStages := S - len(starts)
		remainingLayers := L - i
		mustCut := remainingLayers == remainingStages && i > starts[len(starts)-1]
		if i > starts[len(starts)-1] && remainingStages > 0 && (sum+costs[i] > hi || mustCut) {
			starts = append(starts, i)
			sum = 0
		}
		sum += costs[i]
	}
	// Degenerate cost vectors (all zeros) can under-produce cuts; pad
	// with the trailing layers so every stage is non-empty.
	for len(starts) < S {
		starts = append(starts, L-(S-len(starts)))
	}
	return Partition{Starts: starts, L: L}
}

// Count returns the number of contiguous partitions of L layers into S
// stages, C(L−1, S−1), clamped to avoid overflow (returns at least
// cap+1 once past it, so callers compare against a cap safely).
func Count(L, S, cap int) int {
	if S < 1 || S > L {
		return 0
	}
	n, k := L-1, S-1
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if cap > 0 && c > cap {
			return cap + 1
		}
	}
	return c
}

// Candidates returns how many partitions Enumerate returns for L layers,
// S stages and cap, without enumerating them: C(L−1, S−1) when the walk
// is exhaustive, otherwise the heuristic neighborhood's upper bound of
// 2 + 4(S−1) (balanced compute, count-balanced, and four shifts per
// boundary, before deduplication).
func Candidates(L, S, cap int) int {
	if S < 1 || S > L {
		return 0
	}
	if S == 1 {
		return 1
	}
	if n := Count(L, S, cap); cap <= 0 || n <= cap {
		return n
	}
	return 2 + 4*(S-1)
}

// Enumerate returns the candidate partitions of len(costs) layers into
// S stages, deterministically ordered with the balanced-compute
// heuristic first. When the full space C(L−1, S−1) is within cap the
// list is exhaustive (balanced-compute first, then the remaining
// compositions in lexicographic start order); beyond the cap it is the
// heuristic neighborhood: balanced compute, count-balanced, and every
// single-boundary ±1/±2 shift of the balanced-compute cuts, deduped.
// cap ≤ 0 means an unlimited exhaustive walk.
func Enumerate(costs []float64, S, cap int) []Partition {
	L := len(costs)
	if S < 1 || S > L {
		return nil
	}
	anchor := BalancedCompute(costs, S)
	if S == 1 {
		return []Partition{anchor}
	}
	out := []Partition{anchor}
	seen := map[string]bool{key(anchor): true}
	add := func(p Partition) {
		if k := key(p); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	if n := Count(L, S, cap); cap <= 0 || n <= cap {
		walk(L, S, func(starts []int) {
			add(Partition{Starts: append([]int(nil), starts...), L: L})
		})
		return out
	}
	add(Balanced(L, S))
	for bi := 1; bi < S; bi++ {
		for _, d := range []int{-2, -1, 1, 2} {
			starts := append([]int(nil), anchor.Starts...)
			starts[bi] += d
			if p, err := New(starts, L); err == nil {
				add(p)
			}
		}
	}
	return out
}

// walk visits every composition's start vector in lexicographic order.
func walk(L, S int, visit func(starts []int)) {
	starts := make([]int, S)
	var rec func(k, from int)
	rec = func(k, from int) {
		if k == S {
			visit(starts)
			return
		}
		// Stage k can start anywhere that leaves ≥ 1 layer per
		// remaining stage.
		for s := from; s <= L-(S-k); s++ {
			starts[k] = s
			rec(k+1, s+1)
		}
	}
	starts[0] = 0
	rec(1, 1)
}

func key(p Partition) string { return fmt.Sprint(p.Starts) }
