package planner_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/scenario"
	"dnnparallel/internal/stage"
)

// checkSpace resolves s, counts its search with Options.Space and runs it
// with bounds off, where every leaf is one SearchStats candidate. The
// count is exact wherever the partition walk is exhaustive, and an upper
// bound on the heuristic neighborhood beyond the partition cap; the
// search sizes its leaf and winner lists exactly either way.
func checkSpace(t *testing.T, name string, s scenario.Scenario) {
	t.Helper()
	r, err := s.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	o := r.Options
	S := 1
	if len(o.StageCounts) == 1 {
		S = o.StageCounts[0]
	}
	sp := o.Space(r.Net, r.Batch, r.Procs, S, r.Grid)
	count := sp.Partitions * sp.GridPlacements * sp.MicroBatches * sp.BatchSizes
	o.DisableBounds = true
	P := r.Procs
	if r.Grid != nil {
		P = r.Grid.P() // Evaluate's process count
	}
	st, exact := planner.SearchSized(r.Net, r.Batch, P, o, r.Grid)
	if !exact {
		t.Errorf("%s: the leaf or winner list was not allocated at its exact size", name)
	}
	if st.Bounded != 0 {
		t.Fatalf("%s: %d candidates bounded with bounds off", name, st.Bounded)
	}
	if want := len(o.Batches(r.Batch)); sp.BatchSizes != want {
		t.Errorf("%s: counted %d batch sizes, the search has %d", name, sp.BatchSizes, want)
	}
	limit := o.MaxPartitions
	if limit == 0 {
		limit = planner.DefaultMaxPartitions
	}
	exhaustive := S == 1 || len(o.Partition) > 0 || stage.Count(len(r.Net.WeightedLayers()), S, limit) <= limit
	switch {
	case exhaustive && count != st.Candidates:
		t.Errorf("%s: counted %+v = %d candidates, the search priced %d", name, sp, count, st.Candidates)
	case !exhaustive && count < st.Candidates:
		t.Errorf("%s: counted %+v = %d candidates, below the %d the heuristic search priced", name, sp, count, st.Candidates)
	}
}

// The planner's count of a search is the number of leaves it runs, on
// every example scenario and over a seeded sweep of networks, process
// counts, stage counts, micro-batch lists, placements, flat, two- and
// three-level (and uniform) topologies, time-to-accuracy batch lists,
// pinned grids, pinned cut lists and partition caps.
func TestCandidatesMatchSearch(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, f := range files {
		s, err := scenario.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		checkSpace(t, filepath.Base(f), s)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 120; i++ {
		s := randomSpace(rng)
		checkSpace(t, fmt.Sprintf("sweep %d %s", i, mustCanonical(t, s)), s)
	}
}

func mustCanonical(t *testing.T, s scenario.Scenario) string {
	b, err := s.Canonical()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	return string(b)
}

// randomSpace draws a small valid scenario: the searches stay a few
// hundred leaves at most, so the sweep runs in well under a second.
func randomSpace(rng *rand.Rand) scenario.Scenario {
	pick := func(n int) int { return rng.Intn(n) }
	s := scenario.Default()
	s.Network = nn.PresetNames()[pick(len(nn.PresetNames()))]
	S := 1 + pick(3)
	q := []int{1, 4, 6, 8, 16}[pick(5)]
	s.Procs = S * q
	s.Batch = []int{256, 512, 1024}[pick(3)]
	s.MicroBatches = [][]int{nil, {1, 2}, {2, 4, 8}, {1, 3}}[pick(4)]
	s.Placements = [][]grid.Placement{nil, {grid.RowMajor}, {grid.ColMajor}, {grid.RowMajor, grid.ColMajor}}[pick(4)]
	switch pick(4) {
	case 1:
		s.Topology = &scenario.TopologySpec{RanksPerNode: []int{2, 4}[pick(2)]}
	case 2:
		s.Topology = &scenario.TopologySpec{Levels: []scenario.LevelSpec{
			{AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 2},
			{AlphaSeconds: 1e-6, BandwidthGBs: 20, GroupRanks: 4},
			{AlphaSeconds: 2e-6, BandwidthGBs: 6},
		}}
	case 3: // uniform: every placement prices alike
		s.Topology = &scenario.TopologySpec{Levels: []scenario.LevelSpec{
			{AlphaSeconds: 2e-6, BandwidthGBs: 6, GroupRanks: 4},
			{AlphaSeconds: 2e-6, BandwidthGBs: 6},
		}}
	}
	if pick(3) == 0 {
		s.Objective = planner.TimeToAccuracy
		s.BatchSizes = [][]int{{256}, {256, 1024, 2048}, {s.Batch, 4096}}[pick(3)]
	}
	if S > 1 {
		s.Timeline = true
		s.Pipeline = &scenario.PipelineSpec{Stages: S, MaxPartitions: []int{0, 4, 200}[pick(3)]}
		if pick(4) == 0 {
			cuts := []int{1}
			if S == 3 {
				cuts = append(cuts, 2)
			}
			s.Pipeline.Partition = &scenario.PartitionSpec{Cuts: cuts}
		}
	}
	if pick(4) == 0 {
		gs := grid.Factorizations(q)
		s.Grid = gs[pick(len(gs))].String()
	}
	return s
}

// A pinned grid is one grid, searched under every placement of a
// hierarchical topology unless it is degenerate, and under one on a flat
// machine.
func TestCandidatesPinnedGrid(t *testing.T) {
	o := planner.DefaultOptions()
	net := nn.AlexNet()
	for _, tc := range []struct {
		grid       string
		flat, hier int
	}{{"16x32", 1, 2}, {"1x512", 1, 1}, {"512x1", 1, 1}} {
		g, err := grid.Parse(tc.grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			topo machine.Topology
			want int
		}{{machine.Topology{}, tc.flat}, {machine.CoriKNLNodes(16), tc.hier}} {
			o.Topology = c.topo
			for _, S := range []int{1, 2} {
				sp := o.Space(net, 2048, S*g.P(), S, &g)
				if sp.Grids != 1 || sp.GridPlacements != c.want {
					t.Errorf("grid %s on %q at S=%d: %d grids, %d grid placements, want 1 and %d",
						tc.grid, c.topo.Name, S, sp.Grids, sp.GridPlacements, c.want)
				}
			}
		}
	}
}

// Across stage counts the search's leaves are the sum of each count's
// space; a stage count that does not divide P has no grids and is one
// pseudo candidate.
func TestCandidatesAcrossStageCounts(t *testing.T) {
	net := nn.AlexNet()
	o := planner.DefaultOptions()
	o.UseTimeline = true
	o.StageCounts = []int{1, 2, 3}
	o.MicroBatches = []int{1, 2}
	o.DisableBounds = true
	want := 1 // S=3 on 8 processes
	for _, S := range o.StageCounts {
		sp := o.Space(net, 256, 8, S, nil)
		if S == 3 && sp.Grids != 0 {
			t.Errorf("S=3 on P=8: %d grids, want 0", sp.Grids)
		}
		want += sp.Partitions * sp.GridPlacements * sp.MicroBatches * sp.BatchSizes
	}
	st, exact := planner.SearchSized(net, 256, 8, o, nil)
	if !exact {
		t.Error("the leaf or winner list was not allocated at its exact size")
	}
	if st.Candidates != want {
		t.Errorf("the search priced %d candidates, counted %d", st.Candidates, want)
	}
}

// On a uniform machine the search prices one placement, the first asked
// for: two placements of the flat 512-rank AlexNet question are the same
// 10 leaves and the same plan as one.
func TestUniformSearchesOnePlacement(t *testing.T) {
	net := nn.AlexNet()
	one := planner.DefaultOptions()
	one.DisableBounds = true
	both := one
	both.Placements = []grid.Placement{grid.RowMajor, grid.ColMajor}
	a, err := planner.Optimize(net, 2048, 512, one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planner.Optimize(net, 2048, 512, both)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Candidates != 10 || b.Stats.Candidates != 10 {
		t.Errorf("candidates %d and %d, want 10 (one per grid)", a.Stats.Candidates, b.Stats.Candidates)
	}
	if a.Best.Grid != b.Best.Grid || a.Best.Placement != b.Best.Placement || a.Best.IterSeconds != b.Best.IterSeconds {
		t.Errorf("best %v %v %g, want %v %v %g", b.Best.Grid, b.Best.Placement, b.Best.IterSeconds,
			a.Best.Grid, a.Best.Placement, a.Best.IterSeconds)
	}
	// The first placement asked for is the one searched.
	both.Placements = []grid.Placement{grid.ColMajor, grid.RowMajor}
	c, err := planner.Optimize(net, 2048, 512, both)
	if err != nil {
		t.Fatal(err)
	}
	if c.Best.Placement != grid.ColMajor || c.Best.IterSeconds != a.Best.IterSeconds {
		t.Errorf("col-major first: best %v at %g, want col-major at %g", c.Best.Placement, c.Best.IterSeconds, a.Best.IterSeconds)
	}
}
