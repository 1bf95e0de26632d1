package grid

import (
	"fmt"
	"reflect"
	"testing"
)

// MachineRank returns the machine rank of process (r, c) under a
// placement, the rank-by-rank reference of the progression classifiers.
// The logical rank (Grid.Rank) is the RowMajor special case.
func (g Grid) MachineRank(r, c int, pl Placement) int {
	if r < 0 || r >= g.Pr || c < 0 || c >= g.Pc {
		panic(fmt.Sprintf("grid: coords (%d,%d) outside %v", r, c, g))
	}
	if pl == ColMajor {
		return c*g.Pr + r
	}
	return r*g.Pc + c
}

func TestMachineRankConventions(t *testing.T) {
	g := Grid{Pr: 3, Pc: 4}
	for r := 0; r < g.Pr; r++ {
		for c := 0; c < g.Pc; c++ {
			if got := g.MachineRank(r, c, RowMajor); got != g.Rank(r, c) {
				t.Fatalf("RowMajor(%d,%d) = %d, want logical rank %d", r, c, got, g.Rank(r, c))
			}
			if got, want := g.MachineRank(r, c, ColMajor), c*g.Pr+r; got != want {
				t.Fatalf("ColMajor(%d,%d) = %d, want %d", r, c, got, want)
			}
		}
	}
}

func TestPlacementIsBijection(t *testing.T) {
	g := Grid{Pr: 4, Pc: 6}
	for _, pl := range Placements() {
		seen := make(map[int]bool)
		for r := 0; r < g.Pr; r++ {
			for c := 0; c < g.Pc; c++ {
				mr := g.MachineRank(r, c, pl)
				if mr < 0 || mr >= g.P() || seen[mr] {
					t.Fatalf("%v: machine rank %d repeated or out of range", pl, mr)
				}
				seen[mr] = true
			}
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for s, want := range map[string]Placement{
		"row-major": RowMajor, "row": RowMajor, "": RowMajor,
		"col-major": ColMajor, "COL": ColMajor, "column-major": ColMajor,
	} {
		got, err := ParsePlacement(s)
		if err != nil || got != want {
			t.Fatalf("ParsePlacement(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePlacement("diagonal"); err == nil {
		t.Fatal("ParsePlacement(diagonal) should error")
	}
}

// stat is shorthand for a LevelStat literal in expectations.
func stat(groups, maxRanks, fanout, planes int) LevelStat {
	return LevelStat{Groups: groups, MaxRanks: maxRanks, Fanout: fanout, Planes: planes}
}

func TestSpanOf(t *testing.T) {
	twoLevel := []int{4, 0} // 4-rank nodes under an unbounded cluster
	cases := []struct {
		name  string
		ranks []int
		sizes []int
		want  LevelSpan
	}{
		{"intra", []int{4, 5, 6, 7}, twoLevel,
			LevelSpan{Ranks: 4, Levels: []LevelStat{stat(1, 4, 4, 1), stat(1, 4, 1, 4)}}},
		{"inter", []int{0, 4, 8, 12}, twoLevel,
			LevelSpan{Ranks: 4, Levels: []LevelStat{stat(4, 1, 1, 1), stat(1, 4, 4, 1)}}},
		{"mixed balanced", []int{0, 1, 4, 5}, twoLevel,
			LevelSpan{Ranks: 4, Levels: []LevelStat{stat(2, 2, 2, 1), stat(1, 4, 2, 2)}}},
		{"mixed straddling", []int{2, 3, 4}, twoLevel,
			LevelSpan{Ranks: 3, Levels: []LevelStat{stat(2, 2, 2, 1), stat(1, 3, 2, 2)}}},
		{"singleton", []int{9}, twoLevel,
			LevelSpan{Ranks: 1, Levels: []LevelStat{stat(1, 1, 1, 1), stat(1, 1, 1, 1)}}},
		{"empty", nil, twoLevel, LevelSpan{}},
		// Three levels: 4-rank nodes inside 8-rank racks. Two ranks per
		// node, two nodes per rack, both racks touched.
		{"three level", []int{0, 1, 4, 5, 8, 9, 12, 13}, []int{4, 8, 0},
			LevelSpan{Ranks: 8, Levels: []LevelStat{
				stat(4, 2, 2, 1), stat(2, 4, 2, 2), stat(1, 8, 2, 4)}}},
	}
	for _, c := range cases {
		if got := SpanOf(c.ranks, c.sizes); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: SpanOf(%v, %v) = %+v, want %+v", c.name, c.ranks, c.sizes, got, c.want)
		}
	}
}

func TestSpanActive(t *testing.T) {
	// {0,1,4,5} on 4-rank nodes moves data at both levels; {4,5,6,7}
	// only within its node; {0,4,8,12} only across nodes. A level is
	// active when the group spreads over more than one of its sub-units.
	active := func(s LevelSpan, i int) bool { return s.Levels[i].Fanout > 1 }
	mixed := SpanOf([]int{0, 1, 4, 5}, []int{4, 0})
	if !active(mixed, 0) || !active(mixed, 1) {
		t.Fatal("straddling span must be active at both levels")
	}
	intra := SpanOf([]int{4, 5, 6, 7}, []int{4, 0})
	if !active(intra, 0) || active(intra, 1) {
		t.Fatal("single-node span must be active only at level 0")
	}
	inter := SpanOf([]int{0, 4, 8, 12}, []int{4, 0})
	if active(inter, 0) || !active(inter, 1) {
		t.Fatal("one-rank-per-node span must be active only at level 1")
	}
}

// A 4×4 grid on 4-rank nodes: under RowMajor each row group is one node
// and each column group touches all nodes; ColMajor swaps the two.
func TestGroupSpansAlignedGrid(t *testing.T) {
	g := Grid{Pr: 4, Pc: 4}
	sizes := []int{4, 0}

	rows := g.RowGroupSpansAt(sizes, RowMajor, 0)
	if len(rows) != 1 || rows[0].Levels[0].Groups != 1 {
		t.Fatalf("RowMajor row groups = %v, want one intra-node span", rows)
	}
	cols := g.ColGroupSpansAt(sizes, RowMajor, 0)
	if len(cols) != 1 || cols[0].Levels[0].MaxRanks != 1 {
		t.Fatalf("RowMajor col groups = %v, want one one-rank-per-node span", cols)
	}

	rows = g.RowGroupSpansAt(sizes, ColMajor, 0)
	if len(rows) != 1 || rows[0].Levels[0].MaxRanks != 1 {
		t.Fatalf("ColMajor row groups = %v, want one one-rank-per-node span", rows)
	}
	cols = g.ColGroupSpansAt(sizes, ColMajor, 0)
	if len(cols) != 1 || cols[0].Levels[0].Groups != 1 {
		t.Fatalf("ColMajor col groups = %v, want one intra-node span", cols)
	}
}

// A group wider than a node becomes a mixed span: a 1×8 grid on 4-rank
// nodes has one row group spanning 2 nodes with 4 ranks each.
func TestGroupSpansMixed(t *testing.T) {
	g := Grid{Pr: 1, Pc: 8}
	spans := g.RowGroupSpansAt([]int{4, 0}, RowMajor, 0)
	want := LevelSpan{Ranks: 8, Levels: []LevelStat{stat(2, 4, 4, 1), stat(1, 8, 2, 4)}}
	if len(spans) != 1 || !reflect.DeepEqual(spans[0], want) {
		t.Fatalf("spans = %v, want [%+v]", spans, want)
	}
}

// Misaligned groups (Pc does not divide the node size) produce distinct
// straddling shapes; the dedupe must keep each shape once,
// deterministically sorted.
func TestGroupSpansMisaligned(t *testing.T) {
	g := Grid{Pr: 2, Pc: 3} // P = 6 on 4-rank nodes
	spans := g.RowGroupSpansAt([]int{4, 0}, RowMajor, 0)
	// Row 0 = ranks {0,1,2} (one node); row 1 = ranks {3,4,5} (straddles).
	want := []LevelSpan{
		{Ranks: 3, Levels: []LevelStat{stat(1, 3, 3, 1), stat(1, 3, 1, 3)}},
		{Ranks: 3, Levels: []LevelStat{stat(2, 2, 2, 1), stat(1, 3, 2, 2)}},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
}

func TestAllSpan(t *testing.T) {
	cases := []struct {
		g     Grid
		sizes []int
		want  LevelSpan
	}{
		{Grid{Pr: 2, Pc: 4}, []int{4, 0},
			LevelSpan{Ranks: 8, Levels: []LevelStat{stat(2, 4, 4, 1), stat(1, 8, 2, 4)}}},
		{Grid{Pr: 1, Pc: 6}, []int{4, 0},
			LevelSpan{Ranks: 6, Levels: []LevelStat{stat(2, 4, 4, 1), stat(1, 6, 2, 4)}}},
		{Grid{Pr: 1, Pc: 3}, []int{8, 0},
			LevelSpan{Ranks: 3, Levels: []LevelStat{stat(1, 3, 3, 1), stat(1, 3, 1, 3)}}},
	}
	for _, c := range cases {
		if got := c.g.AllSpanAt(c.sizes, 0); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%v.AllSpanAt(%v, 0) = %+v, want %+v", c.g, c.sizes, got, c.want)
		}
		// AllSpanAt must agree with classifying the literal rank list.
		ranks := make([]int, c.g.P())
		for i := range ranks {
			ranks[i] = i
		}
		if got, want := SpanOf(ranks, c.sizes), c.g.AllSpanAt(c.sizes, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("SpanOf(0..P-1) = %+v disagrees with AllSpanAt %+v", got, want)
		}
	}
}

func TestColNeighborsLevel(t *testing.T) {
	// ColMajor keeps column neighbors adjacent in machine-rank space: a
	// 4-high column fits on a 4-rank node.
	g := Grid{Pr: 4, Pc: 2}
	sizes := []int{4, 0}
	if got := g.ColNeighborsLevelAt(sizes, ColMajor, 0); got != 0 {
		t.Fatalf("ColMajor 4-high columns on 4-rank nodes = level %d, want 0", got)
	}
	// RowMajor gives column neighbors stride Pc=2: ranks {0,2,4,6} cross
	// the node boundary between 2 and 4.
	if got := g.ColNeighborsLevelAt(sizes, RowMajor, 0); got != 1 {
		t.Fatalf("RowMajor strided columns = level %d, want 1", got)
	}
	// Pr = 1 has no neighbor pairs at all.
	if got := (Grid{Pr: 1, Pc: 8}).ColNeighborsLevelAt(sizes, RowMajor, 0); got != 0 {
		t.Fatalf("Pr=1 has no halo pairs, got level %d, want 0", got)
	}
	// A column taller than the node must cross somewhere even if packed.
	if got := (Grid{Pr: 8, Pc: 1}).ColNeighborsLevelAt(sizes, ColMajor, 0); got != 1 {
		t.Fatalf("8-high packed column on 4-rank nodes = level %d, want 1", got)
	}
	// Three levels (4-rank nodes, 8-rank racks): a 16-high packed column
	// crosses a rack boundary between ranks 7 and 8.
	if got := (Grid{Pr: 16, Pc: 1}).ColNeighborsLevelAt([]int{4, 8, 0}, ColMajor, 0); got != 2 {
		t.Fatalf("16-high packed column = level %d, want 2", got)
	}
	// An 8-high packed column stays within one rack: the worst crossing
	// is the node boundary inside it.
	if got := (Grid{Pr: 8, Pc: 1}).ColNeighborsLevelAt([]int{4, 8, 0}, ColMajor, 0); got != 1 {
		t.Fatalf("8-high packed column in one rack = level %d, want 1", got)
	}
}

// Offset variants shift the whole rank block: an aligned block keeps the
// zero-offset spans and a misaligned one straddles more units.
func TestOffsetSpans(t *testing.T) {
	g := Grid{Pr: 4, Pc: 2}
	sizes := []int{4, 0} // 4-rank nodes

	// A node-aligned offset preserves every span shape (the block just
	// occupies later nodes).
	if got, want := g.AllSpanAt(sizes, 8), g.AllSpanAt(sizes, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("node-aligned offset changed the span: %+v vs %+v", got, want)
	}

	// A misaligned offset splits the 8-rank block over 3 nodes instead
	// of 2.
	if got := g.AllSpanAt(sizes, 2); got.Levels[0].Groups != 3 {
		t.Fatalf("offset 2 block touches %d nodes, want 3", got.Levels[0].Groups)
	}

	// ColMajor packs each 4-high column on one node at offset 0; offset
	// 2 pushes every column across a node boundary.
	if got := g.ColNeighborsLevelAt(sizes, ColMajor, 0); got != 0 {
		t.Fatalf("aligned packed columns = level %d, want 0", got)
	}
	if got := g.ColNeighborsLevelAt(sizes, ColMajor, 2); got != 1 {
		t.Fatalf("misaligned packed columns = level %d, want 1", got)
	}
}
