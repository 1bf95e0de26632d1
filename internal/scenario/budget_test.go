package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/planner"
)

// budgetRepro is a ~200-byte scenario whose exhaustive S=8 VGG16 search
// is 6435 partitions × 10 grids × 6 micro-batch counts = 386,100 leaves.
const budgetRepro = `{"network":"vgg16","batch":8192,"procs":4096,"mode":"auto","timeline":true,"policy":"backprop","micro_batches":[1,2,4,8,16,32],"schedule":"1f1b","pipeline":{"stages":8,"max_partitions":6435}}`

func TestCandidateBudgetRejectsRepro(t *testing.T) {
	s, err := Decode([]byte(budgetRepro))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Resolve()
	elapsed := time.Since(start)
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "candidates" {
		t.Fatalf("Resolve error %v, want a *ValidationError on candidates", err)
	}
	if !strings.Contains(ve.Reason, "6435 partitions × 10 grid placements × 6 micro-batch counts × 1 batch sizes = 386100") {
		t.Errorf("reason %q does not name the product", ve.Reason)
	}
	if elapsed > time.Second {
		t.Errorf("rejection took %v", elapsed)
	}
	// The same question with the partitions left to the default cap is
	// within budget.
	s.Pipeline.MaxPartitions = 0
	if _, err := s.Resolve(); err != nil {
		t.Errorf("default-cap variant rejected: %v", err)
	}
}

// The counted product is exactly the number of leaves the search
// enumerates wherever the partitions are exhaustive: with bounds off
// every leaf is one SearchStats candidate.
func TestCandidatesMatchSearch(t *testing.T) {
	cases := map[string]func(*Scenario){
		"flat":  func(s *Scenario) {},
		"micro": func(s *Scenario) { s.MicroBatches = []int{1, 2, 4, 4} },
		"topology": func(s *Scenario) {
			s.Topology = &TopologySpec{RanksPerNode: 16}
		},
		"placements": func(s *Scenario) {
			s.Topology = &TopologySpec{RanksPerNode: 16}
			s.Placements = []grid.Placement{grid.ColMajor}
		},
		"staged": func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: 2}
			s.MicroBatches = []int{1, 2}
		},
		"staged cuts": func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: 2, Partition: &PartitionSpec{Cuts: []int{5}}}
		},
		"legacy stages": func(s *Scenario) { s.PipelineStages = 4 },
		"tta": func(s *Scenario) {
			s.Objective = planner.TimeToAccuracy
			s.BatchSizes = []int{512, 1024, 2048}
		},
	}
	for name, edit := range cases {
		s := Default()
		edit(&s)
		r, err := s.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := s.Normalize()
		S := 1
		if n.Pipeline != nil {
			S = n.Pipeline.Stages
		}
		uniform := n.Topology == nil || n.Topology.resolve().Uniform()
		f := n.candidates(S, 0, uniform, nil)
		r.Options.DisableBounds = true
		res, err := planner.Optimize(r.Net, r.Batch, r.Procs, r.Options)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f[0] * f[1] * f[2] * f[3]; got != res.Stats.Candidates {
			t.Errorf("%s: counted %v = %d candidates, the search priced %d", name, f, got, res.Stats.Candidates)
		}
	}
}

// A pinned grid counts one grid, priced once under every placement unless
// it is degenerate.
func TestCandidatesPinnedGrid(t *testing.T) {
	for _, tc := range []struct {
		grid string
		want int
	}{{"16x32", 2}, {"1x512", 1}, {"512x1", 1}} {
		s := Default()
		s.Topology = &TopologySpec{RanksPerNode: 16}
		g, err := grid.Parse(tc.grid)
		if err != nil {
			t.Fatal(err)
		}
		if f := s.Normalize().candidates(1, 0, false, &g); f[1] != tc.want {
			t.Errorf("grid %s: %d grid placements, want %d", tc.grid, f[1], tc.want)
		}
	}
}
