package grid

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceSpanOf is the map-based classifier the run-counting SpanOf
// replaced, kept verbatim as the parity oracle: per level it counts
// ranks per unit and collects the distinct sub-units per unit in maps,
// making no assumption about rank order.
func referenceSpanOf(ranks []int, sizes []int) LevelSpan {
	if len(ranks) == 0 {
		return LevelSpan{}
	}
	s := LevelSpan{Ranks: len(ranks), Levels: make([]LevelStat, len(sizes))}
	prevMaxRanks := 1
	for i, size := range sizes {
		rankCount := make(map[int]int)
		subUnits := make(map[int]map[int]struct{})
		for _, r := range ranks {
			gid := levelUnit(r, size)
			rankCount[gid]++
			sub := r
			if i > 0 {
				sub = levelUnit(r, sizes[i-1])
			}
			set := subUnits[gid]
			if set == nil {
				set = make(map[int]struct{})
				subUnits[gid] = set
			}
			set[sub] = struct{}{}
		}
		st := LevelStat{Groups: len(rankCount), Planes: prevMaxRanks}
		for gid, n := range rankCount {
			if n > st.MaxRanks {
				st.MaxRanks = n
			}
			if f := len(subUnits[gid]); f > st.Fanout {
				st.Fanout = f
			}
		}
		s.Levels[i] = st
		prevMaxRanks = st.MaxRanks
	}
	return s
}

// referenceGroupSpans classifies every row (rows=true) or column group
// by listing its ranks through MachineRank, then sorts and dedupes the
// spans — the pre-progression implementation of *GroupSpansAt.
func referenceGroupSpans(g Grid, sizes []int, pl Placement, offset int, rows bool) []LevelSpan {
	count, n := g.Pc, g.Pr
	if rows {
		count, n = g.Pr, g.Pc
	}
	var spans []LevelSpan
	for k := 0; k < count; k++ {
		ranks := make([]int, n)
		for j := range ranks {
			r, c := j, k
			if rows {
				r, c = k, j
			}
			ranks[j] = offset + g.MachineRank(r, c, pl)
		}
		spans = append(spans, referenceSpanOf(ranks, sizes))
	}
	sort.Slice(spans, func(i, j int) bool { return compareSpans(spans[i], spans[j]) < 0 })
	out := spans[:0]
	for i, s := range spans {
		if i == 0 || compareSpans(s, out[len(out)-1]) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// referenceColNeighborsLevel is the pairwise MachineRank scan the
// progression walk replaced.
func referenceColNeighborsLevel(g Grid, sizes []int, pl Placement, offset int) int {
	level := 0
	for c := 0; c < g.Pc; c++ {
		for r := 0; r+1 < g.Pr; r++ {
			a := offset + g.MachineRank(r, c, pl)
			b := offset + g.MachineRank(r+1, c, pl)
			l := 0
			for l < len(sizes)-1 && levelUnit(a, sizes[l]) != levelUnit(b, sizes[l]) {
				l++
			}
			if l > level {
				level = l
			}
		}
	}
	return level
}

// randomSizes draws a 1–4 level hierarchy, innermost first. Nested
// hierarchies (each size a multiple of the one inside it, the shape
// machine.Topology.Validate enforces) come back three times in four; the
// rest are arbitrary, which SpanOf's contract also admits. Half of them
// end in an unbounded (size 0) outermost level.
func randomSizes(rng *rand.Rand) []int {
	L := 1 + rng.Intn(4)
	nested := rng.Intn(4) > 0
	sizes := make([]int, L)
	for i := range sizes {
		switch {
		case i == 0 || !nested:
			sizes[i] = 1 + rng.Intn(8)
		default:
			sizes[i] = sizes[i-1] * (1 + rng.Intn(4))
		}
	}
	if rng.Intn(2) == 0 {
		sizes[L-1] = 0
	}
	return sizes
}

// TestSpanOfMatchesReference: on random rank multisets — in drawn
// order and sorted, duplicates included — the run-counting classifier returns
// exactly the map-based reference's span.
func TestSpanOfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		sizes := randomSizes(rng)
		ranks := make([]int, rng.Intn(40))
		for i := range ranks {
			ranks[i] = rng.Intn(200)
		}
		want := referenceSpanOf(ranks, sizes)
		input := slices.Clone(ranks) // drawn in random order
		if got := SpanOf(input, sizes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SpanOf(%v, %v) = %+v, want %+v", trial, ranks, sizes, got, want)
		}
		if !slices.Equal(input, ranks) {
			t.Fatalf("trial %d: SpanOf reordered its input", trial)
		}
		sort.Ints(ranks)
		if got := SpanOf(ranks, sizes); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sorted SpanOf(%v, %v) = %+v, want %+v", trial, ranks, sizes, got, want)
		}
	}
}

// TestGridSpansMatchReference: for random grids, hierarchies, and rank
// offsets (mostly not node-aligned), under both placements, every grid
// classifier agrees exactly with classifying the literal rank lists.
func TestGridSpansMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1500; trial++ {
		g := Grid{Pr: 1 + rng.Intn(12), Pc: 1 + rng.Intn(12)}
		sizes := randomSizes(rng)
		offset := 0
		if rng.Intn(4) > 0 {
			offset = rng.Intn(3 * g.P())
		}
		all := make([]int, g.P())
		for i := range all {
			all[i] = offset + i
		}
		if got, want := g.AllSpanAt(sizes, offset), referenceSpanOf(all, sizes); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v sizes %v offset %d: AllSpanAt = %+v, want %+v", g, sizes, offset, got, want)
		}
		for _, pl := range Placements() {
			if got, want := g.ColGroupSpansAt(sizes, pl, offset), referenceGroupSpans(g, sizes, pl, offset, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %v sizes %v offset %d: ColGroupSpansAt = %+v, want %+v", g, pl, sizes, offset, got, want)
			}
			if got, want := g.RowGroupSpansAt(sizes, pl, offset), referenceGroupSpans(g, sizes, pl, offset, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %v sizes %v offset %d: RowGroupSpansAt = %+v, want %+v", g, pl, sizes, offset, got, want)
			}
			if got, want := g.ColNeighborsLevelAt(sizes, pl, offset), referenceColNeighborsLevel(g, sizes, pl, offset); got != want {
				t.Fatalf("%v %v sizes %v offset %d: ColNeighborsLevelAt = %d, want %d", g, pl, sizes, offset, got, want)
			}
		}
	}
}

// TestNegativeRanksPanic: unit ids truncate toward zero, so a negative
// rank would silently share a node with ranks 0…size−1 (−1 and 3 on
// 4-rank nodes). Every classifier refuses one instead.
func TestNegativeRanksPanic(t *testing.T) {
	g := Grid{Pr: 2, Pc: 2}
	sizes := []int{4, 0}
	for name, f := range map[string]func(){
		"SpanOf":              func() { SpanOf([]int{-1, 3}, sizes) },
		"SpanOf unsorted":     func() { SpanOf([]int{3, -1}, sizes) },
		"ColGroupSpansAt":     func() { g.ColGroupSpansAt(sizes, RowMajor, -1) },
		"RowGroupSpansAt":     func() { g.RowGroupSpansAt(sizes, ColMajor, -1) },
		"AllSpanAt":           func() { g.AllSpanAt(sizes, -1) },
		"ColNeighborsLevelAt": func() { g.ColNeighborsLevelAt(sizes, ColMajor, -1) },
	} {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg, _ = r.(string)
				}
			}()
			f()
			return ""
		}()
		if !strings.Contains(msg, "non-negative machine ranks, got -1") {
			t.Fatalf("%s with rank -1: panic %q, want a non-negative-rank panic", name, msg)
		}
	}
}

// BenchmarkColGroupSpansAt times one column-group classification — the
// per-candidate placement scan of a hierarchical search — on a P=512
// 8×64 grid over 16-rank nodes, row-major (strided column groups).
func BenchmarkColGroupSpansAt(b *testing.B) {
	g := Grid{Pr: 8, Pc: 64}
	sizes := []int{16, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if spans := g.ColGroupSpansAt(sizes, RowMajor, 0); len(spans) != 1 {
			b.Fatalf("%d spans, want 1", len(spans))
		}
	}
}
