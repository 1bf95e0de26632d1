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

// referenceChoice is the Auto rule applied to one weighted layer's
// three independently priced candidates: a conv layer takes the cheapest
// available one (Domain when g.Pr fits its input height, BatchOnly when
// g.P() ≤ B; ties keep Model, then Domain), an FC layer Model.
func referenceChoice(l *nn.Layer, g grid.Grid, B int, model, domain, batch LayerCost) LayerCost {
	best := model
	if l.Kind != nn.Conv {
		return best
	}
	if g.Pr <= l.In.H && domain.TotalSeconds() < best.TotalSeconds() {
		best = domain
	}
	if g.P() <= B && batch.TotalSeconds() < best.TotalSeconds() {
		best = batch
	}
	return best
}

// referenceAutoAssignment is the three-way Auto choice read off three
// whole-network Eq. 9 passes, one per uniform strategy.
func referenceAutoAssignment(e Env, net *nn.Network, B int, g grid.Grid) Assignment {
	model := e.FullIntegrated(net, B, g, UniformAssignment(net, Model))
	domain := e.FullIntegrated(net, B, g, UniformAssignment(net, Domain))
	batch := e.FullIntegrated(net, B, g, UniformAssignment(net, BatchOnly))
	a := make(Assignment)
	for k, li := range net.WeightedLayers() {
		a[li] = referenceChoice(&net.Layers[li], g, B, model.Layers[k], domain.Layers[k], batch.Layers[k]).Strategy
	}
	return a
}

// referenceStagedAuto is the Auto choice of a staged iteration at
// micro-batch size B/M, each stage choosing on its own grid and rank
// block: read off three PriceStages passes, one per uniform strategy.
func referenceStagedAuto(t *testing.T, e Env, net *nn.Network, B int, part stage.Partition, grids []grid.Grid,
	cm compute.Model, sched timeline.Schedule) Assignment {
	t.Helper()
	var uniform [3]*Breakdown
	for i, s := range []Strategy{Model, Domain, BatchOnly} {
		sp, err := e.PriceStages(net, B, part, grids, UniformAssignment(net, s), cm, sched)
		if err != nil {
			t.Fatal(err)
		}
		uniform[i] = sp.Breakdown
	}
	a := make(Assignment)
	for k, li := range net.WeightedLayers() {
		g := grids[part.StageOf(k)]
		a[li] = referenceChoice(&net.Layers[li], g, B/sched.MicroBatches,
			uniform[0].Layers[k], uniform[1].Layers[k], uniform[2].Layers[k]).Strategy
	}
	return a
}

// TestAutoIntegratedParity: FullIntegrated under Auto's requested
// assignment, ConvAssignment(net, Cheapest, Model), resolves exactly the
// three-way choice and returns exactly FullIntegrated's breakdown of it,
// on random conv+FC networks over 1-, 2- and 3-level topologies, both
// placements, batches below and above P, and grids whose Pr exceeds
// some conv input height — priced afresh and through a SpanMemo filled
// at every stage offset of a 3-stage split. Staged, PriceStages under
// the same request resolves each stage at its own rank offset to the
// three-way choice there (on 12- and 16-rank nodes some stage blocks
// straddle nodes and choose differently from offset 0) and equals
// PriceStages of that choice; through the memo it matches fresh pricing,
// and on a uniform topology, where offsets cannot matter,
// FullIntegrated.
func TestAutoIntegratedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	knlLink := machine.Link{Alpha: knl().Alpha, Beta: knl().Beta}
	topos := []machine.Topology{
		machine.Flat(knl()),
		machine.CoriKNLNodes(4),
		machine.CoriKNLNodes(16),
		machine.CoriKNLNodes(12),
		machine.TwoLevel("uniform", knlLink, knlLink, 8, knl().PeakFlops),
		threeLevel(),
	}
	cm := compute.KNLCaffe()
	var trials, smallBatch, tallPr, staged, offsetChoice int
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

		memo := NewSpanMemo(topo, net, 3, 3)
		for k := 0; k < 3; k++ {
			memo.Fill(g, pl, k*g.P())
		}
		memo.Seal()
		fresh := Env{Topo: topo, Placement: pl}
		memoized := Env{Topo: topo, Placement: pl, Spans: memo}
		auto := ConvAssignment(net, Cheapest, Model)

		wantA := referenceAutoAssignment(fresh, net, B, g)
		wantBD := fresh.FullIntegrated(net, B, g, wantA)
		for _, env := range []Env{fresh, memoized} {
			bd := env.FullIntegrated(net, B, g, auto)
			if a := bd.Assignment(); !reflect.DeepEqual(a, wantA) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): assignment %v, want %v",
					trials, topo.Name, g, pl, B, env.Spans != nil, a, wantA)
			}
			if !reflect.DeepEqual(bd, wantBD) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): breakdown differs from FullIntegrated of the choice",
					trials, topo.Name, g, pl, B, env.Spans != nil)
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
		stagedA := referenceStagedAuto(t, fresh, net, B, part, sg, cm, sched)
		if !reflect.DeepEqual(stagedA, wantA) {
			offsetChoice++
		}
		want, err := fresh.PriceStages(net, B, part, sg, stagedA, cm, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range []Env{fresh, memoized} {
			got, err := env.PriceStages(net, B, part, sg, auto, cm, sched)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Assignment, stagedA) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): staged assignment %v, want each stage's choice %v",
					trials, topo.Name, g, pl, B, env.Spans != nil, got.Assignment, stagedA)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%s, grid %v, %v, B=%d, memo=%t): staged pricing differs from PriceStages of the choice",
					trials, topo.Name, g, pl, B, env.Spans != nil)
			}
		}
		// Where rank offsets cannot matter, a staged layer costs exactly
		// what it costs unstaged: stage-first layers included.
		if topo.Uniform() && !reflect.DeepEqual(want.Breakdown.Layers, wantBD.Layers) {
			t.Fatalf("trial %d (%s, grid %v, B=%d): staged layer costs differ from FullIntegrated",
				trials, topo.Name, g, B)
		}
	}
	if smallBatch == 0 || tallPr == 0 || staged == 0 || offsetChoice == 0 {
		t.Fatalf("coverage: %d trials with B < P, %d with Pr above a conv input height, %d staged, %d choosing differently off rank offset 0",
			smallBatch, tallPr, staged, offsetChoice)
	}
}

// TestAutoChoosesOnEachStageBlock pins where choosing per stage block
// differs from choosing at rank offset 0. VGG16 in four balanced stages
// of a 2 × 3 column-major grid on 16-rank KNL nodes, B = 256, one
// micro-batch: stage 2 runs on ranks 12–17, which straddle a node
// boundary. There conv5_1 and conv5_2 resolve to Model, where the choice
// made on ranks 0–5 is BatchOnly, and the stage's Eq. 9 communication is
// below what the offset-0 choice costs on that block. The Auto rule
// minimizes each layer's Eq. 9 total, as it does on one stage; it does
// not promise a shorter scheduled iteration (under backprop overlap this
// case runs about 0.6 ms longer, 2.72005 → 2.72062 s).
func TestAutoChoosesOnEachStageBlock(t *testing.T) {
	net := nn.VGG16()
	env := Env{Topo: machine.CoriKNLNodes(16), Placement: grid.ColMajor}
	g := grid.Grid{Pr: 2, Pc: 3}
	const B = 256
	part := stage.Balanced(len(net.WeightedLayers()), 4)
	grids := []grid.Grid{g, g, g, g}
	sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 1}
	cm := compute.KNLCaffe()

	perBlock, err := env.PriceStages(net, B, part, grids, ConvAssignment(net, Cheapest, Model), cm, sched)
	if err != nil {
		t.Fatal(err)
	}
	atZero := env.FullIntegrated(net, B, g, ConvAssignment(net, Cheapest, Model)).Assignment()
	offsetZero, err := env.PriceStages(net, B, part, grids, atZero, cm, sched)
	if err != nil {
		t.Fatal(err)
	}
	sc := perBlock.Stages[2]
	if sc.RankOffset != 12 || sc.RankOffset+g.P() != 18 {
		t.Fatalf("stage 2 runs ranks %d–%d, want 12–17", sc.RankOffset, sc.RankOffset+g.P()-1)
	}
	for li := sc.FirstLayer; li <= sc.LastLayer; li++ {
		name := net.Layers[li].Name
		if name != "conv5_1" && name != "conv5_2" {
			continue
		}
		if got, was := perBlock.Assignment[li], atZero[li]; got != Model || was != BatchOnly {
			t.Errorf("%s: resolves to %v on its stage's block (offset-0 choice %v), want model (batch)", name, got, was)
		}
	}
	if got, was := sc.CommSeconds, offsetZero.Stages[2].CommSeconds; !(got < was) {
		t.Errorf("stage 2 comm %.6g s under its own choice, want below the offset-0 choice's %.6g s", got, was)
	}
}

// Memory, MemoryStages and RedistributionSeconds read resolved
// strategies: an unresolved Cheapest layer — even one FC layer, and even
// on a Pr = 1 grid, where the redistribution would cost nothing — panics
// instead of being priced as some fixed strategy.
func TestUnresolvedCheapestPanics(t *testing.T) {
	net := nn.AlexNet()
	env := FlatEnv(knl())
	one := stage.Balanced(len(net.WeightedLayers()), 1)
	fc := net.WeightedLayers()[len(net.WeightedLayers())-1]
	for name, assign := range map[string]Assignment{
		"auto request": ConvAssignment(net, Cheapest, Model),
		"one FC layer": {fc: Cheapest},
	} {
		for what, call := range map[string]func(){
			"Memory": func() { Memory(net, 256, grid.Grid{Pr: 4, Pc: 4}, assign) },
			"MemoryStages": func() {
				MemoryStages(net, 256, one, []grid.Grid{{Pr: 4, Pc: 4}}, assign, timeline.Schedule{MicroBatches: 1})
			},
			"RedistributionSeconds": func() { env.RedistributionSeconds(net, 256, grid.Grid{Pr: 4, Pc: 4}, assign, one) },
			"RedistributionSeconds Pr=1": func() {
				env.RedistributionSeconds(net, 256, grid.Grid{Pr: 1, Pc: 16}, assign, one)
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s under %s: no panic", what, name)
					}
				}()
				call()
			}()
		}
	}
}
