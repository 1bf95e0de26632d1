package collective

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// TestUniformCollapseProperty extends the PR 3 uniform-collapse
// property to arbitrary depth: a random L-level topology (L ∈ 1..4)
// whose levels all carry the identical link must price every primitive
// exactly like the flat machine closed forms — within 1e-12 relative —
// for random rank subsets classified by the real grid.SpanOf, whatever
// the group sizes say. Depth without link contrast is representation,
// not physics.
func TestUniformCollapseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		link := machine.Link{
			Alpha: rng.Float64() * 1e-5,
			Beta:  machine.WordBytes / ((1 + rng.Float64()*99) * 1e9),
		}
		m := machine.Machine{Name: "uniform", Alpha: link.Alpha, Beta: link.Beta, PeakFlops: 1e12}

		depth := 1 + rng.Intn(4)
		topo := machine.Topology{Name: "uniform", PeakFlops: 1e12}
		size := 1
		for l := 0; l < depth; l++ {
			gs := 0
			if l < depth-1 {
				size *= 1 + rng.Intn(4) + 1 // grow by a factor of 2..5
				gs = size
			}
			topo.Levels = append(topo.Levels, machine.Level{Name: "l", Link: link, GroupSize: gs})
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid topology: %v", trial, err)
		}
		if !topo.Uniform() {
			t.Fatalf("trial %d: identical links must classify Uniform", trial)
		}

		// A random subset of machine ranks, classified for real.
		universe := 4 * size
		p := 1 + rng.Intn(32)
		perm := rng.Perm(universe)
		ranks := perm[:min(p, universe)]
		s := grid.SpanOf(ranks, topo.GroupSizes())
		p = s.Ranks
		words := rng.Float64() * 1e8

		checks := []struct {
			name       string
			flat, topo Cost
		}{
			{"all-reduce", AllReduce(p, words, m), AllReduceTopo(s, words, topo)},
			{"p2p", PointToPoint(words, m), PointToPointTopo(rng.Intn(depth), words, topo)},
		}
		for _, c := range checks {
			if d := math.Abs(c.topo.Total() - c.flat.Total()); d > 1e-12*math.Max(c.flat.Total(), 1e-300) {
				t.Fatalf("trial %d depth %d %s (p=%d): uniform topo %g != flat %g",
					trial, depth, c.name, p, c.topo.Total(), c.flat.Total())
			}
			if leveled(c.topo) {
				t.Fatalf("trial %d %s: uniform collapse must not carry a level split: %+v", trial, c.name, c.topo)
			}
		}
	}
}
