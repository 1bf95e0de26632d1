package grid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dnnparallel/internal/enum"
)

// Placement maps logical grid coordinates (r, c) to machine ranks, i.e.
// decides where each process of the Pr × Pc grid physically sits when the
// machine packs consecutive machine ranks onto nodes. The choice matters
// only on a hierarchical machine: it decides whether the Pc-sized row
// groups (the ∆W all-reduce of Fig. 5) or the Pr-sized column groups (the
// activation all-gather / ∆X all-reduce) stay inside a node.
type Placement int

const (
	// RowMajor places process (r, c) at machine rank r·Pc + c — the
	// package's logical rank convention. Row groups occupy consecutive
	// machine ranks; column groups have stride Pc.
	RowMajor Placement = iota
	// ColMajor places process (r, c) at machine rank c·Pr + r. Column
	// groups occupy consecutive machine ranks; row groups have stride Pr.
	ColMajor
)

// Placements lists every placement, in search order.
func Placements() []Placement { return []Placement{RowMajor, ColMajor} }

var placements = enum.New("placement", "placement",
	[]string{"row-major", "col-major"},
	map[string]Placement{"row": RowMajor, "col": ColMajor, "column-major": ColMajor})

func (p Placement) String() string { return placements.String(p) }

// ParsePlacement converts a flag value into a Placement.
func ParsePlacement(s string) (Placement, error) { return placements.Parse(s) }

// Validate returns MarshalText's error, or nil without allocating.
func (p Placement) Validate() error { return placements.Validate(p) }

// MarshalText implements encoding.TextMarshaler so a Placement embeds in
// JSON specs as its canonical string.
func (p Placement) MarshalText() ([]byte, error) { return placements.Marshal(p) }

// UnmarshalText implements encoding.TextUnmarshaler via ParsePlacement.
func (p *Placement) UnmarshalText(text []byte) error { return placements.Unmarshal(p, text) }

// LevelStat summarizes how one collective group's machine ranks occupy
// one level of a hierarchical machine — the per-level information the
// recursive α–β cost formulas need. Levels follow machine.Topology
// order, innermost first.
type LevelStat struct {
	// Groups is the number of distinct level-i groups the collective
	// group touches (nodes at level 0 of a node/cluster machine).
	Groups int
	// MaxRanks is the largest number of the group's ranks inside any
	// one touched level-i group.
	MaxRanks int
	// Fanout is the largest number of touched immediate sub-units
	// inside one touched group: ranks for the innermost level, touched
	// level-(i−1) groups above. A level with Fanout 1 moves no data —
	// the recursion skips it.
	Fanout int
	// Planes is the number of concurrent communication planes a
	// hierarchical collective runs across this level's links: the
	// busiest sub-unit's rank count (1 at the innermost level). The
	// per-level phase of a collective is serialized over its planes —
	// they share the sub-unit's single uplink, exactly as the PR 3
	// two-level model serialized MaxPerNode planes over a node's NIC.
	Planes int
}

// LevelSpan classifies one collective group of machine ranks against
// every level of a hierarchical machine. The zero value (no levels)
// stands for a group on a flat machine — uniform-topology pricing never
// consults the per-level stats.
type LevelSpan struct {
	// Ranks is the group size p.
	Ranks int
	// Levels holds one LevelStat per topology level, innermost first.
	Levels []LevelStat
}

func (s LevelSpan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d ranks", s.Ranks)
	for i, lv := range s.Levels {
		fmt.Fprintf(&b, "; l%d: %d groups (≤%d ranks, fanout %d, %d planes)",
			i, lv.Groups, lv.MaxRanks, lv.Fanout, lv.Planes)
	}
	return b.String()
}

// levelUnit returns the index of the size-`size` unit that machine rank
// r falls in; size 0 (an unbounded outermost level) is one unit.
func levelUnit(r, size int) int {
	if size > 0 {
		return r / size
	}
	return 0
}

// checkSizes panics unless sizes is a valid hierarchy for fn: at least
// one level, every non-outermost size ≥ 1.
func checkSizes(fn string, sizes []int) {
	if len(sizes) == 0 {
		panic("grid: " + fn + " needs at least one level size")
	}
	for i, size := range sizes[:len(sizes)-1] {
		if size < 1 {
			panic(fmt.Sprintf("grid: %s level %d needs a group size ≥ 1, got %d", fn, i, size))
		}
	}
}

// checkRank panics on a negative machine rank: levelUnit truncates
// toward zero, so rank −1 would silently share unit 0 with ranks 0…size−1.
func checkRank(fn string, r int) {
	if r < 0 {
		panic(fmt.Sprintf("grid: %s needs non-negative machine ranks, got %d", fn, r))
	}
}

// SpanOf classifies a set of machine ranks against a hierarchy of group
// sizes (innermost first, as machine.Topology.GroupSizes returns them;
// the outermost size may be 0 = the whole machine). Non-outermost sizes
// must be ≥ 1 and ranks must be non-negative; they may come in any
// order (an unsorted set is classified from a sorted copy).
func SpanOf(ranks []int, sizes []int) LevelSpan {
	checkSizes("SpanOf", sizes)
	if len(ranks) == 0 {
		return LevelSpan{}
	}
	if !sort.IntsAreSorted(ranks) {
		ranks = append([]int(nil), ranks...)
		sort.Ints(ranks)
	}
	checkRank("SpanOf", ranks[0])
	s := LevelSpan{Ranks: len(ranks), Levels: make([]LevelStat, len(sizes))}
	classify(ranks, sizes, s.Levels)
	return s
}

// classify fills levels[i] for every level size from a non-empty,
// non-decreasing list of non-negative ranks. Unit ids are monotone in
// the rank, so on sorted ranks each touched level-i unit is one run of
// equal unit ids, and within it each touched sub-unit (the rank itself
// at level 0, its level-(i−1) unit above) is one run of equal sub ids:
// one pass per level counting runs yields every LevelStat without maps.
// A run ends where a rank reaches its unit's (or sub-unit's) exclusive
// upper bound, so the pass divides only at run boundaries.
func classify(ranks, sizes []int, levels []LevelStat) {
	planes := 1
	for i, size := range sizes {
		subSize := 1
		if i > 0 {
			subSize = sizes[i-1]
		}
		st := LevelStat{Planes: planes}
		unitEnd, subEnd := unitBound(ranks[0], size), unitBound(ranks[0], subSize)
		n, fanout := 1, 1
		for _, r := range ranks[1:] {
			if r >= unitEnd {
				st.Groups++
				st.MaxRanks = max(st.MaxRanks, n)
				st.Fanout = max(st.Fanout, fanout)
				unitEnd, subEnd = unitBound(r, size), unitBound(r, subSize)
				n, fanout = 1, 1
				continue
			}
			n++
			if r >= subEnd {
				subEnd = unitBound(r, subSize)
				fanout++
			}
		}
		st.Groups++
		st.MaxRanks = max(st.MaxRanks, n)
		st.Fanout = max(st.Fanout, fanout)
		levels[i] = st
		planes = st.MaxRanks
	}
}

// unitBound returns the first rank past the size-`size` unit holding
// rank r (MaxInt for the unbounded size 0).
func unitBound(r, size int) int {
	switch size {
	case 0:
		return math.MaxInt
	case 1:
		return r + 1
	}
	return (r/size + 1) * size
}

// classifyAP fills levels[i] for every level size from the n ≥ 1 ranks
// first + j·stride (j < n, first ≥ 0, stride ≥ 1) without listing them:
// it walks the touched level-i units, each holding a consecutive run of
// terms. When stride ≥ size every term opens a new unit; otherwise a
// unit's terms are found by division. Within a unit, a stride ≥ the
// sub-unit size puts every term in its own sub-unit, and a smaller one
// cannot jump over a sub-unit, so the touched sub-units are exactly the
// consecutive ids from the first term's to the last's.
func classifyAP(first, stride, n int, sizes []int, levels []LevelStat) {
	last := first + (n-1)*stride
	planes := 1
	for i, size := range sizes {
		subSize := 1
		if i > 0 {
			subSize = sizes[i-1]
		}
		st := LevelStat{Planes: planes}
		if size > 0 && stride >= size {
			st.Groups, st.MaxRanks, st.Fanout = n, 1, 1
		} else {
			for j := 0; j < n; {
				lo := first + j*stride
				end := last
				if size > 0 {
					end = min(end, (lo/size+1)*size-1)
				}
				jhi := (end - first) / stride
				count := jhi - j + 1
				fanout := count
				if stride < subSize {
					fanout = (first+jhi*stride)/subSize - lo/subSize + 1
				}
				st.Groups++
				st.MaxRanks = max(st.MaxRanks, count)
				st.Fanout = max(st.Fanout, fanout)
				j = jhi + 1
			}
		}
		levels[i] = st
		planes = st.MaxRanks
	}
}

// compareLevels orders two shapes of equal depth by their per-level
// stats, innermost first, so worst-case selection over a deduplicated
// span list cannot depend on group enumeration order.
func compareLevels(a, b []LevelStat) int {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.Groups != y.Groups:
			return x.Groups - y.Groups
		case x.MaxRanks != y.MaxRanks:
			return x.MaxRanks - y.MaxRanks
		case x.Fanout != y.Fanout:
			return x.Fanout - y.Fanout
		case x.Planes != y.Planes:
			return x.Planes - y.Planes
		}
	}
	return 0
}

// Progression describes the collective groups of one grid dimension
// under a placement: group k (k < Count) holds the N machine ranks
// offset + k·Step + j·Stride, j < N — an ascending arithmetic
// progression, because every placement is affine in (r, c). The
// row-major column groups of an a×b grid are the column-major row groups
// of the b×a grid, one Progression. A rank block of R ranks is the
// one-group Progression{Count: 1, Step: 1, N: R, Stride: 1}. A Step that
// one group cannot use (Count 1) and a Stride that one rank cannot use
// (N 1) are 1, so equal groups are equal Progressions.
type Progression struct {
	Count, Step, N, Stride int
}

// progression returns the Progression of count groups of n ranks.
func progression(count, step, n, stride int) Progression {
	if count == 1 {
		step = 1
	}
	if n == 1 {
		stride = 1
	}
	return Progression{Count: count, Step: step, N: n, Stride: stride}
}

// ColGroups returns the column groups' progression (Pr ranks each, one
// group per column c) under a placement: process (r, c) sits at machine
// rank r·Pc + c row-major, c·Pr + r column-major.
func (g Grid) ColGroups(pl Placement) Progression {
	if pl == ColMajor {
		return progression(g.Pc, g.Pr, g.Pr, 1)
	}
	return progression(g.Pc, 1, g.Pr, g.Pc)
}

// RowGroups returns the row groups' progression (Pc ranks each, one
// group per row r) under a placement.
func (g Grid) RowGroups(pl Placement) Progression {
	if pl == ColMajor {
		return progression(g.Pr, 1, g.Pc, g.Pr)
	}
	return progression(g.Pr, g.Pc, g.Pc, 1)
}

// AppendShapes classifies every group of the progression at a rank
// offset and appends the Levels of its distinct shapes to stats,
// len(sizes) LevelStats per shape, in ascending order (per level,
// innermost first: Groups, MaxRanks, Fanout, Planes — the order
// ColGroupSpansAt returns them in). Non-outermost sizes must be ≥ 1 and
// the offset non-negative. Each group is classified straight into the
// free tail of stats, which is kept only when the shape is new (the
// distinct shapes are few, so the linear duplicate scan is cheaper than
// sorting all groups). Shapes repeat with the groups' period (see
// shapePeriod), so only the first period's groups are classified.
func (pg Progression) AppendShapes(stats []LevelStat, sizes []int, offset int) []LevelStat {
	checkSizes("AppendShapes", sizes)
	checkRank("AppendShapes", offset)
	L, base := len(sizes), len(stats)
	for k := 0; k < shapePeriod(sizes, pg.Step, pg.Count); k++ {
		stats = slices.Grow(stats, L)
		tail := stats[len(stats) : len(stats)+L]
		classifyAP(offset+k*pg.Step, pg.Stride, pg.N, sizes, tail)
		at := base
		for at < len(stats) && compareLevels(stats[at:at+L], tail) < 0 {
			at += L
		}
		if at < len(stats) && compareLevels(stats[at:at+L], tail) == 0 {
			continue
		}
		// Insert the new shape at its place in order.
		stats = stats[:len(stats)+L]
		for j := len(stats) - L; j > at; j -= L {
			for i := j; i < j+L; i++ {
				stats[i], stats[i-L] = stats[i-L], stats[i]
			}
		}
	}
	return stats
}

// NeighborsLevel returns the innermost level whose groups contain every
// pair of consecutive ranks within every group of the progression at a
// rank offset (see ColNeighborsLevelAt).
func (pg Progression) NeighborsLevel(sizes []int, offset int) int {
	if len(sizes) == 0 {
		panic("grid: NeighborsLevel needs at least one level size")
	}
	checkRank("NeighborsLevel", offset)
	top := len(sizes) - 1
	level := 0
	// Halo levels repeat with the groups' period, like their spans.
	for k := 0; k < shapePeriod(sizes, pg.Step, pg.Count) && level < top; k++ {
		a := offset + k*pg.Step
		for j := 1; j < pg.N && level < top; j++ {
			b := a + pg.Stride
			l := 0
			for l < top && levelUnit(a, sizes[l]) != levelUnit(b, sizes[l]) {
				l++
			}
			level = max(level, l)
			a = b
		}
	}
	return level
}

// spans returns the distinct level spans of the progression's groups at
// a rank offset (see AppendShapes), their Levels backed by one slab.
func (pg Progression) spans(fn string, sizes []int, offset int) []LevelSpan {
	checkSizes(fn, sizes)
	checkRank(fn, offset)
	L := len(sizes)
	slab := pg.AppendShapes(make([]LevelStat, 0, 4*L), sizes, offset)
	out := make([]LevelSpan, len(slab)/L)
	for d := range out {
		out[d] = LevelSpan{Ranks: pg.N, Levels: slab[d*L : (d+1)*L : (d+1)*L]}
	}
	return out
}

// shapePeriod returns the smallest p ≥ 1 for which p·step is a multiple
// of every bounded level size, capped at limit. Shifting a rank set by
// such a multiple moves each of its units and sub-units onto another
// unit one for one, so groups k and k+p of a progression with that step
// have the same shape.
func shapePeriod(sizes []int, step, limit int) int {
	m := 1 // lcm of the bounded sizes so far
	for _, size := range sizes {
		if size == 0 {
			continue
		}
		if size >= limit*step { // m/gcd(m, step) ≥ m/step ≥ limit
			return limit
		}
		m = m / gcd(m, size) * size
		if m >= limit*step {
			return limit
		}
	}
	return min(m/gcd(m, step), limit)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ColGroupSpansAt returns the distinct level spans of the Pc column
// groups (the Pr-sized all-gather / ∆X all-reduce groups of Fig. 5)
// under a placement, for a grid whose process (0,0) sits at machine
// rank `offset` — the placement of one pipeline stage's rank block
// inside the machine (0 for a grid that owns the whole machine).
// Misaligned groups can straddle group boundaries differently, so more
// than one shape may come back; a bulk-synchronous collective is
// governed by the most expensive one. An offset can move a group across
// node or rack boundaries, so the spans (and hence the Eq. 3–9 prices)
// genuinely depend on where the block starts.
func (g Grid) ColGroupSpansAt(sizes []int, pl Placement, offset int) []LevelSpan {
	return g.ColGroups(pl).spans("ColGroupSpansAt", sizes, offset)
}

// RowGroupSpansAt returns the distinct level spans of the Pr row groups
// (the Pc-sized ∆W all-reduce groups of Fig. 5) under a placement, for a
// grid whose rank block starts at machine rank `offset` (see
// ColGroupSpansAt).
func (g Grid) RowGroupSpansAt(sizes []int, pl Placement, offset int) []LevelSpan {
	return g.RowGroups(pl).spans("RowGroupSpansAt", sizes, offset)
}

// AllSpanAt returns the level span of a grid's whole rank block — the
// contiguous machine ranks offset … offset+P−1 — used by the full-group
// collectives (pure batch / domain gradient all-reduces). It is
// placement-independent: every placement is a bijection onto the block.
func (g Grid) AllSpanAt(sizes []int, offset int) LevelSpan {
	checkSizes("AllSpanAt", sizes)
	checkRank("AllSpanAt", offset)
	s := LevelSpan{Ranks: g.P(), Levels: make([]LevelStat, len(sizes))}
	classifyAP(offset, 1, g.P(), sizes, s.Levels)
	return s
}

// ColNeighborsLevelAt returns the innermost level whose groups contain
// every pair of spatially adjacent ranks within every column group —
// the halo-exchange partners of the domain-parallel layers (Eq. 7) —
// for a grid whose rank block starts at machine rank `offset` (see
// ColGroupSpansAt). The halo step is bulk-synchronous across all pairs,
// so a single boundary-crossing pair lifts the whole exchange to the
// level (and link) of that crossing.
func (g Grid) ColNeighborsLevelAt(sizes []int, pl Placement, offset int) int {
	if len(sizes) == 0 {
		panic("grid: ColNeighborsLevelAt needs at least one level size")
	}
	checkRank("ColNeighborsLevelAt", offset)
	return g.ColGroups(pl).NeighborsLevel(sizes, offset)
}
