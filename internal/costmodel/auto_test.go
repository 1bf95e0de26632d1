package costmodel

import (
	"math/rand"
	"reflect"
	"testing"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// referenceAutoAssignment is the three-way Auto choice read off three
// whole-network Eq. 9 passes, one per uniform strategy: every conv layer
// takes the cheapest available strategy (Domain when g.Pr fits its input
// height, BatchOnly when g.P() ≤ B; ties keep Model, then Domain), every
// FC layer Model.
func referenceAutoAssignment(e Env, net *nn.Network, B int, g grid.Grid) Assignment {
	model := e.FullIntegrated(net, B, g, UniformAssignment(net, Model))
	domain := e.FullIntegrated(net, B, g, UniformAssignment(net, Domain))
	batch := e.FullIntegrated(net, B, g, UniformAssignment(net, BatchOnly))
	a := make(Assignment)
	for k, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		best := Model
		if l.Kind == nn.Conv {
			bestCost := model.Layers[k].TotalSeconds()
			if c := domain.Layers[k].TotalSeconds(); g.Pr <= l.In.H && c < bestCost {
				best, bestCost = Domain, c
			}
			if c := batch.Layers[k].TotalSeconds(); g.P() <= B && c < bestCost {
				best = BatchOnly
			}
		}
		a[li] = best
	}
	return a
}

// TestAutoIntegratedParity: the fused choose-and-price pass returns
// exactly the three-way choice and exactly FullIntegrated's breakdown of
// it (and AutoAssignment the same choice), on random conv+FC networks
// over 1-, 2- and 3-level topologies, both placements, batches below and
// above P, and grids whose Pr exceeds some conv input height — priced
// afresh and through a SpanMemo filled at every stage offset of a
// 3-stage split, whose staged pricing of the chosen assignment must
// match fresh pricing too (and, on a uniform topology, FullIntegrated).
func TestAutoIntegratedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	knlLink := machine.Link{Alpha: knl().Alpha, Beta: knl().Beta}
	topos := []machine.Topology{
		machine.Flat(knl()),
		machine.CoriKNLNodes(4),
		machine.CoriKNLNodes(16),
		machine.TwoLevel("uniform", knlLink, knlLink, 8, knl().PeakFlops),
		threeLevel(),
	}
	cm := compute.KNLCaffe()
	var trials, smallBatch, tallPr, staged int
	for trials < 150 {
		net := randomNetwork(rng)
		if net == nil {
			continue
		}
		trials++
		topo := topos[trials%len(topos)]
		P := []int{4, 8, 12, 16, 32, 64, 128}[rng.Intn(7)]
		grids := grid.Factorizations(P)
		g := grids[rng.Intn(len(grids))]
		pl := grid.Placements()[rng.Intn(2)]
		B := 1 + rng.Intn(2*P)
		if B < P {
			smallBatch++
		}
		for _, li := range net.ConvLayers() {
			if g.Pr > net.Layers[li].In.H {
				tallPr++
				break
			}
		}

		memo := NewSpanMemo(topo, net)
		for k := 0; k < 3; k++ {
			memo.Fill(g, pl, k*g.P())
		}
		fresh := Env{Topo: topo, Placement: pl}
		memoized := Env{Topo: topo, Placement: pl, Spans: memo}

		wantA := referenceAutoAssignment(fresh, net, B, g)
		wantBD := fresh.FullIntegrated(net, B, g, wantA)
		for _, env := range []Env{fresh, memoized} {
			bd, a := env.AutoIntegrated(net, B, g)
			if !reflect.DeepEqual(a, wantA) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): assignment %v, want %v",
					trials, topo.Name, g, pl, B, env.Spans != nil, a, wantA)
			}
			if !reflect.DeepEqual(bd, wantBD) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): breakdown differs from FullIntegrated",
					trials, topo.Name, g, pl, B, env.Spans != nil)
			}
			if a := env.AutoAssignment(net, B, g); !reflect.DeepEqual(a, wantA) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): AutoAssignment %v, want %v",
					trials, topo.Name, g, pl, B, env.Spans != nil, a, wantA)
			}
		}

		L := len(net.WeightedLayers())
		if L < 3 || B < g.Pc {
			continue
		}
		staged++
		part := stage.Balanced(L, 3)
		sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 1}
		sg := []grid.Grid{g, g, g}
		got, err := memoized.StageIteration(net, B, part, sg, wantA, cm, timeline.PolicyBackprop, sched)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.StageIteration(net, B, part, sg, wantA, cm, timeline.PolicyBackprop, sched)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s, grid %v, %v, B=%d): staged pricing differs through the memo",
				trials, topo.Name, g, pl, B)
		}
		// Where rank offsets cannot matter, a staged layer costs exactly
		// what it costs unstaged: stage-first layers included.
		if topo.Uniform() && !reflect.DeepEqual(got.Breakdown.Layers, wantBD.Layers) {
			t.Fatalf("trial %d (%s, grid %v, B=%d): staged layer costs differ from FullIntegrated",
				trials, topo.Name, g, B)
		}
	}
	if smallBatch == 0 || tallPr == 0 || staged == 0 {
		t.Fatalf("coverage: %d trials with B < P, %d with Pr above a conv input height, %d staged",
			smallBatch, tallPr, staged)
	}
}
