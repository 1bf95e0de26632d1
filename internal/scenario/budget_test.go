package scenario

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// Canonical, run on every dnnserve request (cache hits included), keeps
// its allocation count per example scenario: the candidate budget counts
// the search without enumerating it, the enum fields are checked without
// rendering their names, and an unpinned grid is not parsed.
func TestCanonicalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	want := map[string]float64{
		"alexnet-p512.json": 3, "alexnet-pipeline.json": 6, "alexnet-rack.json": 16,
		"alexnet-sim-8x64.json": 5, "alexnet-stages.json": 7, "alexnet-topology.json": 11,
		"alexnet-tta.json": 6, "resnet50-rack.json": 16, "vgg16-stages.json": 7,
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) != len(want) {
		t.Fatalf("examples %v (%v), want the %d pinned", files, err, len(want))
	}
	for _, f := range files {
		s, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Canonical(); err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		if got := testing.AllocsPerRun(100, func() { _, _ = s.Canonical() }); got > want[name] {
			t.Errorf("%s: Canonical allocates %v times, want at most %v", name, got, want[name])
		}
	}
}

// hugeProcsRepro names a prime process count: it has only two grids, so
// the candidate budget passes it, but every per-P loop behind it is
// hopeless.
const hugeProcsRepro = `{"network":"alexnet","batch":1024,"procs":99999999999973}`

// A process count above MaxProcs, and two-level sugar whose nodes ×
// ranks_per_node exceeds it (here so far that the int product would
// wrap to a small or zero count), are rejected at validation in well
// under a second.
func TestMaxProcsRejected(t *testing.T) {
	for _, c := range []struct{ body, field string }{
		{hugeProcsRepro, "procs"},
		{`{"network":"alexnet","batch":1024,"procs":16777217}`, "procs"},
		{`{"network":"alexnet","batch":1024,"procs":4,"topology":{"nodes":4611686018427387905,"ranks_per_node":4}}`, "topology.nodes"},
		{`{"network":"alexnet","batch":1024,"topology":{"nodes":1099511627776,"ranks_per_node":1099511627776}}`, "topology.nodes"},
		{`{"network":"alexnet","batch":1024,"topology":{"nodes":4097,"ranks_per_node":4096}}`, "topology.nodes"},
	} {
		s, err := Decode([]byte(c.body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = s.Resolve()
		elapsed := time.Since(start)
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Field != c.field {
			t.Fatalf("%s: Resolve error %v, want a *ValidationError on %s", c.body, err, c.field)
		}
		if !strings.Contains(ve.Reason, "16777216") {
			t.Errorf("%s: reason %q does not name the cap", c.body, ve.Reason)
		}
		if elapsed > time.Second {
			t.Errorf("%s: rejection took %v", c.body, elapsed)
		}
	}
	// The cap itself is a valid process count, spelled either way.
	for _, body := range []string{
		`{"network":"alexnet","batch":1024,"procs":16777216,"grid":"1x16777216"}`,
		`{"network":"alexnet","batch":1024,"topology":{"nodes":4096,"ranks_per_node":4096},"grid":"1x16777216"}`,
	} {
		s, err := Decode([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Normalize().Validate(); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}
