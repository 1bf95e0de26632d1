package costmodel

import (
	"math"
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

// Regression for the dead firstModel flag removed from FullIntegrated:
// only the network's very first weighted layer skips the ∆X all-reduce.
// When the leading conv layers run Domain, the first *Model* layer (fc6)
// is not the first weighted layer, so it must still pay ActReduce — its
// ∆X has to propagate back into the domain-parallel stack below it.
func TestFirstModelLayerAfterDomainPaysActReduce(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 8, Pc: 64}
	assign := ConvAssignment(net, Domain, Model)
	b := FlatEnv(knl()).FullIntegrated(net, 512, g, assign)

	widx := net.WeightedLayers()
	sawModel := false
	for _, lc := range b.Layers {
		switch lc.Strategy {
		case Domain:
			if lc.ActReduce.Total() != 0 {
				t.Fatalf("domain layer %s must not carry a ∆X all-reduce", lc.Name)
			}
		case Model:
			if !sawModel {
				sawModel = true
				if lc.Index == widx[0] {
					t.Fatal("test setup broken: first weighted layer ended up Model")
				}
				if lc.ActReduce.Total() == 0 {
					t.Fatalf("first Model layer %s (not the first weighted layer) must pay ActReduce", lc.Name)
				}
			}
		}
	}
	if !sawModel {
		t.Fatal("test setup broken: no Model layer found")
	}

	// And the genuine first weighted layer, when Model, still skips it.
	uniform := FlatEnv(knl()).FullIntegrated(net, 512, g, UniformAssignment(net, Model))
	if uniform.Layers[0].ActReduce.Total() != 0 {
		t.Fatal("the network's first weighted layer must never pay a ∆X all-reduce")
	}
	for _, lc := range uniform.Layers[1:] {
		if lc.ActReduce.Total() == 0 {
			t.Fatalf("layer %s should pay ActReduce under the uniform Model assignment", lc.Name)
		}
	}
}

// EpochIterations/EpochSeconds must fail loudly instead of dividing by
// zero (or silently mis-rounding a negative batch).
func TestEpochPanicsOnBadInputs(t *testing.T) {
	cases := map[string]func(){
		"zero batch":        func() { EpochIterations(1000, 0) },
		"negative batch":    func() { EpochIterations(1000, -8) },
		"seconds zero b":    func() { EpochSeconds(0.5, 1000, 0) },
		"negative dataset":  func() { EpochIterations(-1, 64) },
		"seconds negativeN": func() { EpochSeconds(0.5, -10, 64) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		})
	}
	// Valid inputs keep working.
	if EpochIterations(0, 64) != 0 {
		t.Fatal("empty dataset should take zero iterations")
	}
}

// A uniform two-level topology must reproduce every flat breakdown to
// the last bit, whatever placement or ranks-per-node it claims —
// property-tested over random grids, batch sizes, and assignments.
func TestEnvFlatEquivalenceProperty(t *testing.T) {
	net := nn.AlexNet()
	m := knl()
	rng := rand.New(rand.NewSource(42))
	strategies := []Strategy{Model, Domain, BatchOnly}
	for trial := 0; trial < 50; trial++ {
		p := 1 << (1 + rng.Intn(10)) // 2 … 1024
		grids := grid.Factorizations(p)
		g := grids[rng.Intn(len(grids))]
		B := g.Pc * (1 + rng.Intn(8))
		// Uniform topology with arbitrary node size and placement.
		topo := machine.TwoLevel(m.Name, machine.Link{Alpha: m.Alpha, Beta: m.Beta},
			machine.Link{Alpha: m.Alpha, Beta: m.Beta}, 1+rng.Intn(8), m.PeakFlops)
		env := Env{Topo: topo, Placement: grid.Placements()[rng.Intn(2)]}

		assign := make(Assignment)
		for _, li := range net.WeightedLayers() {
			assign[li] = strategies[rng.Intn(len(strategies))]
		}

		pairs := []struct {
			name       string
			flat, topo *Breakdown
		}{
			{"FullIntegrated", FlatEnv(m).FullIntegrated(net, B, g, assign), env.FullIntegrated(net, B, g, assign)},
			{"Integrated", FlatEnv(m).Integrated(net, B, g), env.Integrated(net, B, g)},
			{"PureModel", FlatEnv(m).PureModel(net, B, p), env.PureModel(net, B, p)},
			{"PureBatch", FlatEnv(m).PureBatch(net, B, p), env.PureBatch(net, B, p)},
			{"PureDomain", FlatEnv(m).PureDomain(net, B, p), env.PureDomain(net, B, p)},
		}
		for _, pair := range pairs {
			if len(pair.flat.Layers) != len(pair.topo.Layers) {
				t.Fatalf("%s: layer count mismatch", pair.name)
			}
			for i := range pair.flat.Layers {
				if pair.flat.Layers[i] != pair.topo.Layers[i] {
					t.Fatalf("%s (grid %v, B=%d, ppn=%d, %v): layer %d differs:\nflat %+v\ntopo %+v",
						pair.name, g, B, topo.RanksPerNode(), env.Placement, i,
						pair.flat.Layers[i], pair.topo.Layers[i])
				}
			}
		}
		if rs := env.Redistribute(net, 0, B, p); rs != FlatEnv(m).Redistribute(net, 0, B, p) {
			t.Fatalf("Redistribute differs under uniform topology")
		}
	}
}

// On a genuinely two-level machine the placement matters: with AlexNet's
// FC layers model-parallel on an aligned grid, the activation collectives
// travel the column groups — packing those onto nodes (ColMajor) must
// price the model terms cheaper than scattering them (RowMajor).
func TestPlacementChangesModelCosts(t *testing.T) {
	net := nn.AlexNet()
	topo := machine.CoriKNLNodes(4)
	g := grid.Grid{Pr: 4, Pc: 16}
	B := 512
	assign := UniformAssignment(net, Model)

	col := Env{Topo: topo, Placement: grid.ColMajor}.FullIntegrated(net, B, g, assign)
	row := Env{Topo: topo, Placement: grid.RowMajor}.FullIntegrated(net, B, g, assign)

	var colAG, rowAG float64
	for i := range col.Layers {
		colAG += col.Layers[i].AllGather.Total() + col.Layers[i].ActReduce.Total()
		rowAG += row.Layers[i].AllGather.Total() + row.Layers[i].ActReduce.Total()
	}
	if colAG >= rowAG {
		t.Fatalf("ColMajor activation collectives (%g) should beat RowMajor (%g) — 4-high columns fit a node", colAG, rowAG)
	}

	// Every leveled cost must sum its attribution to the total.
	for _, bd := range []*Breakdown{col, row} {
		for _, lc := range bd.Layers {
			for _, c := range []struct {
				name string
				cost float64
				in   float64
			}{
				{"AllGather", lc.AllGather.Total(), lc.AllGather.LevelSum()},
				{"ActReduce", lc.ActReduce.Total(), lc.ActReduce.LevelSum()},
				{"GradReduce", lc.GradReduce.Total(), lc.GradReduce.LevelSum()},
			} {
				if c.cost > 0 && math.Abs(c.in-c.cost) > 1e-12*c.cost {
					t.Fatalf("%s %s: level attribution %g != total %g", lc.Name, c.name, c.in, c.cost)
				}
			}
		}
	}
}

// A 10× slower inter-node link must make the all-on-one-node grid
// pricing strictly cheaper than the flat machine predicts, and the
// scattered pricing no cheaper.
func TestTwoLevelBracketsFlat(t *testing.T) {
	net := nn.AlexNet()
	topo := machine.CoriKNLNodes(8)
	flat := topo.Machine() // inter-level view = the Table 1 constants
	g := grid.Grid{Pr: 8, Pc: 8}
	B := 512

	flatBD := FlatEnv(flat).Integrated(net, B, g)
	colPacked := Env{Topo: topo, Placement: grid.ColMajor}.Integrated(net, B, g)
	if colPacked.TotalSeconds() >= flatBD.TotalSeconds() {
		t.Fatalf("packing the heavy groups on-node (%g) must beat the flat Aries-only model (%g)",
			colPacked.TotalSeconds(), flatBD.TotalSeconds())
	}
}

// A SpanMemo never changes a price: pricing through a filled memo, an
// unfilled key, or a memo built for a different hierarchy (whose
// classifications must be ignored) matches classifying afresh, at every
// rank offset a stage can start at.
func TestSpanMemoNeverChangesPrices(t *testing.T) {
	net := nn.AlexNet()
	nodes := machine.CoriKNLNodes(16)
	other := machine.CoriKNLNodes(12)
	g := grid.Grid{Pr: 8, Pc: 16}
	memo := NewSpanMemo(nodes, net)
	wrong := NewSpanMemo(other, net)
	for _, pl := range grid.Placements() {
		for _, off := range []int{0, 128, 200} {
			memo.Fill(g, pl, off)
			wrong.Fill(g, pl, off)
		}
	}
	for _, pl := range grid.Placements() {
		fresh := Env{Topo: nodes, Placement: pl}
		for _, env := range []Env{
			{Topo: nodes, Placement: pl, Spans: memo},
			{Topo: nodes, Placement: pl, Spans: wrong},
			{Topo: nodes, Placement: pl, Spans: NewSpanMemo(nodes, net)}, // every key a miss
		} {
			for _, off := range []int{0, 128, 200} {
				want, got := fresh.pricerAt(g, off), env.pricerAt(g, off)
				if !reflect.DeepEqual(got.col, want.col) || !reflect.DeepEqual(got.row, want.row) ||
					!reflect.DeepEqual(got.all, want.all) || got.haloLevel != want.haloLevel {
					t.Fatalf("%v offset %d: memoized spans differ from fresh ones", pl, off)
				}
			}
			bd, a := env.AutoIntegrated(net, 512, g)
			wantBD, wantA := fresh.AutoIntegrated(net, 512, g)
			if !reflect.DeepEqual(a, wantA) || !reflect.DeepEqual(bd, wantBD) {
				t.Fatalf("%v: AutoIntegrated differs through the memo", pl)
			}
			if got, want := env.FullIntegrated(net, 512, g, a), fresh.FullIntegrated(net, 512, g, a); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: FullIntegrated differs through the memo", pl)
			}
		}
	}
}

// The gradient-price memo is consulted only where it is exact: a filled
// (block, offset) entry supplies one price per weighted layer; an
// unfilled key, a memo for the same level sizes but different links, and
// a memo for a different network supply none. Whichever path is taken,
// every Domain/BatchOnly breakdown — single grid, pure domain/batch, and
// staged at stage offsets — is bit-identical to pricing afresh.
func TestGradMemoNeverChangesPrices(t *testing.T) {
	net := nn.AlexNet()
	topo := threeLevel()
	slow := threeLevel()
	for i := range slow.Levels {
		slow.Levels[i].Link.Alpha *= 3
		slow.Levels[i].Link.Beta *= 2
	}
	g := grid.Grid{Pr: 4, Pc: 32} // 128-rank block; stage 1 starts at 128
	filled := NewSpanMemo(topo, net)
	wrongLinks := NewSpanMemo(slow, net)
	otherNet := NewSpanMemo(topo, nn.VGG16())
	for _, m := range []*SpanMemo{filled, wrongLinks, otherNet} {
		for _, pl := range grid.Placements() {
			for _, off := range []int{0, 128} {
				m.Fill(g, pl, off)
			}
			m.Fill(grid.Grid{Pr: 1, Pc: 256}, pl, 0)
			m.Fill(grid.Grid{Pr: 256, Pc: 1}, pl, 0)
		}
	}
	nw := len(net.WeightedLayers())
	usable := func(m *SpanMemo, pl grid.Placement, off int) int {
		pr := Env{Topo: topo, Placement: pl, Spans: m}.pricerAt(g, off)
		n := 0
		for k, li := range net.WeightedLayers() {
			if k < len(pr.grad) && pr.grad[k].words == float64(net.Layers[li].Weights()) {
				n++
			}
		}
		return n
	}
	for _, pl := range grid.Placements() {
		if n := usable(filled, pl, 128); n != nw {
			t.Fatalf("%v: filled memo supplies %d of %d gradient prices", pl, n, nw)
		}
		if n := usable(filled, pl, 64); n != 0 {
			t.Fatalf("%v: unfilled offset supplies %d gradient prices", pl, n)
		}
		if n := usable(wrongLinks, pl, 0); n != 0 {
			t.Fatalf("%v: a memo priced on other links supplies %d gradient prices", pl, n)
		}
		if n := usable(otherNet, pl, 0); n != 0 {
			t.Fatalf("%v: a memo for another network supplies %d gradient prices", pl, n)
		}
	}
	// The wrong-links memo would be caught: its prices really differ.
	if a, b := (Env{Topo: topo}).PureBatch(net, 256, 256), (Env{Topo: slow}).PureBatch(net, 256, 256); reflect.DeepEqual(a.Layers, b.Layers) {
		t.Fatal("test setup broken: the slow links price the same gradients")
	}

	domain := ConvAssignment(net, Domain, Model)
	batch := ConvAssignment(net, BatchOnly, Model)
	part := stage.Partition{L: nw, Starts: []int{0, 3}}
	sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 2}
	grids := []grid.Grid{g, g}
	cm := compute.KNLCaffe()
	for _, pl := range grid.Placements() {
		fresh := Env{Topo: topo, Placement: pl}
		for name, m := range map[string]*SpanMemo{
			"filled": filled, "wrong links": wrongLinks, "other net": otherNet, "empty": NewSpanMemo(topo, net),
		} {
			env := Env{Topo: topo, Placement: pl, Spans: m}
			for _, pair := range []struct {
				what      string
				got, want *Breakdown
			}{
				{"domain", env.FullIntegrated(net, 512, g, domain), fresh.FullIntegrated(net, 512, g, domain)},
				{"batch", env.FullIntegrated(net, 512, g, batch), fresh.FullIntegrated(net, 512, g, batch)},
				{"pure batch", env.PureBatch(net, 512, 256), fresh.PureBatch(net, 512, 256)},
				{"pure domain", env.PureDomain(net, 512, 256), fresh.PureDomain(net, 512, 256)},
			} {
				if !reflect.DeepEqual(pair.got, pair.want) {
					t.Fatalf("%v, %s memo: %s breakdown differs from fresh pricing", pl, name, pair.what)
				}
			}
			for _, assign := range []Assignment{domain, batch} {
				got, err := env.StageIteration(net, 512, part, grids, assign, cm, timeline.PolicyBackprop, sched)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.StageIteration(net, 512, part, grids, assign, cm, timeline.PolicyBackprop, sched)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v, %s memo: staged pricing differs from fresh pricing", pl, name)
				}
			}
		}
	}
}

// threeLevel is a 16-rank-node, 128-rank-rack, spine hierarchy.
func threeLevel() machine.Topology {
	return machine.Topology{
		Name: "three-level",
		Levels: []machine.Level{
			{Name: "node", Link: machine.Link{Alpha: 5e-7, Beta: machine.WordBytes / 60e9}, GroupSize: 16},
			{Name: "rack", Link: machine.Link{Alpha: 1e-6, Beta: machine.WordBytes / 12e9}, GroupSize: 128},
			{Name: "spine", Link: machine.Link{Alpha: 2e-6, Beta: machine.WordBytes / 6e9}},
		},
		PeakFlops: machine.CoriKNL().PeakFlops,
	}
}
