// Package grid provides the Pr × Pc logical process-grid algebra of
// Section 2.3: P processes arranged so the Pr dimension carries
// model/domain parallelism and the Pc dimension carries batch parallelism.
//
// Rank convention: process (r, c) has rank r·Pc + c. Row group r = the Pc
// processes sharing a weight shard; column group c = the Pr processes
// sharing a batch shard. This matches Fig. 5's P_ij indexing.
package grid

import (
	"fmt"
	"strconv"
	"strings"
)

// Grid is a logical Pr × Pc process grid.
type Grid struct {
	Pr, Pc int
}

// New validates and returns a Pr × Pc grid.
func New(pr, pc int) (Grid, error) {
	if pr < 1 || pc < 1 {
		return Grid{}, fmt.Errorf("grid: dimensions must be ≥ 1, got %d×%d", pr, pc)
	}
	return Grid{Pr: pr, Pc: pc}, nil
}

// Parse converts a "PrxPc" string (the String form, e.g. "8x64") back
// into a Grid, validating both dimensions.
func Parse(s string) (Grid, error) {
	pr, pc, ok := strings.Cut(strings.ToLower(strings.TrimSpace(s)), "x")
	if !ok {
		return Grid{}, fmt.Errorf("grid: %q is not of the form PrxPc", s)
	}
	r, err := strconv.Atoi(strings.TrimSpace(pr))
	if err != nil {
		return Grid{}, fmt.Errorf("grid: bad Pr in %q: %v", s, err)
	}
	c, err := strconv.Atoi(strings.TrimSpace(pc))
	if err != nil {
		return Grid{}, fmt.Errorf("grid: bad Pc in %q: %v", s, err)
	}
	return New(r, c)
}

// P returns the total process count Pr·Pc.
func (g Grid) P() int { return g.Pr * g.Pc }

// String renders "PrxPc".
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Pr, g.Pc) }

// IsPureBatch reports whether the grid degenerates to pure batch
// parallelism (Pr = 1).
func (g Grid) IsPureBatch() bool { return g.Pr == 1 }

// IsPureModel reports whether the grid degenerates to pure model (or
// domain) parallelism (Pc = 1).
func (g Grid) IsPureModel() bool { return g.Pc == 1 }

// Rank returns the rank of process (r, c).
func (g Grid) Rank(r, c int) int {
	if r < 0 || r >= g.Pr || c < 0 || c >= g.Pc {
		panic(fmt.Sprintf("grid: coords (%d,%d) outside %v", r, c, g))
	}
	return r*g.Pc + c
}

// Coords returns (r, c) for a rank.
func (g Grid) Coords(rank int) (r, c int) {
	if rank < 0 || rank >= g.P() {
		panic(fmt.Sprintf("grid: rank %d outside %v", rank, g))
	}
	return rank / g.Pc, rank % g.Pc
}

// RowGroup returns the ranks sharing row r (the Pc-sized all-reduce group
// for weight gradients in Fig. 5).
func (g Grid) RowGroup(r int) []int {
	out := make([]int, g.Pc)
	for c := 0; c < g.Pc; c++ {
		out[c] = g.Rank(r, c)
	}
	return out
}

// ColGroup returns the ranks sharing column c (the Pr-sized all-gather /
// all-reduce group for activations in Fig. 5).
func (g Grid) ColGroup(c int) []int {
	out := make([]int, g.Pr)
	for r := 0; r < g.Pr; r++ {
		out[r] = g.Rank(r, c)
	}
	return out
}

// Factorizations returns every Pr × Pc factorization of p with Pr·Pc = p,
// ordered by increasing Pr (so index 0 is pure batch and the last entry is
// pure model) — the bar groups of Figs. 6, 7, 9.
func Factorizations(p int) []Grid {
	if p < 1 {
		return nil
	}
	// Divisors pair up around √p: walk pr ≤ p/pr, then mirror the pairs
	// in reverse — O(√p) instead of testing every pr up to p.
	var out []Grid
	for pr := 1; pr <= p/pr; pr++ {
		if p%pr == 0 {
			out = append(out, Grid{Pr: pr, Pc: p / pr})
		}
	}
	for i := len(out) - 1; i >= 0; i-- {
		if g := out[i]; g.Pr != g.Pc {
			out = append(out, Grid{Pr: g.Pc, Pc: g.Pr})
		}
	}
	return out
}

// Shard describes a contiguous 1-D block owned by one process.
type Shard struct {
	Lo, Hi int // element range [Lo, Hi)
}

// Len returns the shard length.
func (s Shard) Len() int { return s.Hi - s.Lo }

// BlockShard splits n elements into p near-equal contiguous blocks and
// returns the i-th. The first n%p blocks get one extra element, so sizes
// differ by at most one (the balanced distribution assumed by the cost
// formulas).
func BlockShard(n, p, i int) Shard {
	if p <= 0 || i < 0 || i >= p {
		panic(fmt.Sprintf("grid: BlockShard(%d,%d,%d)", n, p, i))
	}
	base := n / p
	rem := n % p
	lo := i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return Shard{Lo: lo, Hi: lo + size}
}
