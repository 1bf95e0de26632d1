package costmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// The reference loops below price every weighted position afresh, with
// no layer-class sharing: the loops the pricers ran before classes.

// freshLayers appends the fresh Eq. 9 cost of positions [lo, hi),
// resolving a Cheapest request by the reference rule over the layer's
// three candidates, each priced afresh.
func freshLayers(b *Breakdown, net *nn.Network, lo, hi, B int, pr *pricer, assign Assignment) {
	widx := net.WeightedLayers()
	price := func(k int, s Strategy) LayerCost {
		var lc LayerCost
		layerCost(&lc, net, k, widx[k], B, pr, s)
		return lc
	}
	for k := lo; k < hi; k++ {
		s := assign.of(widx[k])
		if s == Cheapest {
			b.Layers = append(b.Layers, referenceChoice(&net.Layers[widx[k]], pr.g, B,
				price(k, Model), price(k, Domain), price(k, BatchOnly)))
			continue
		}
		b.Layers = append(b.Layers, price(k, s))
	}
}

func freshFull(e Env, net *nn.Network, B int, g grid.Grid, assign Assignment) *Breakdown {
	L := len(net.WeightedLayers())
	b := e.newBreakdown(L)
	pr := e.pricerFor(g)
	freshLayers(b, net, 0, L, B, &pr, assign)
	return b
}

func freshTimes(cm compute.Model, net *nn.Network, B int, g grid.Grid) []compute.LayerTime {
	var times []compute.LayerTime
	for _, li := range net.WeightedLayers() {
		times = append(times, cm.GridLayerTime(&net.Layers[li], li, B, g))
	}
	return times
}

// freshStages prices a staged iteration's layers afresh, each stage on
// its own grid at its own rank offset, at micro-batch size micro.
func freshStages(e Env, net *nn.Network, micro int, part stage.Partition, grids []grid.Grid,
	assign Assignment, cm compute.Model) (*Breakdown, []compute.LayerTime) {
	widx := net.WeightedLayers()
	b := e.newBreakdown(len(widx))
	var times []compute.LayerTime
	offset := 0
	for k, g := range grids {
		lo, hi := part.Bounds(k)
		pr := e.pricerAt(g, offset)
		freshLayers(b, net, lo, hi, micro, &pr, assign)
		for _, li := range widx[lo:hi] {
			times = append(times, cm.GridLayerTime(&net.Layers[li], li, micro, g))
		}
		offset += g.P()
	}
	return b, times
}

// freshGrads prices the whole-block ∆W all-reduce of every position of
// net on the rank block of g at offset, as SpanMemo.Seal does per class.
func freshGrads(topo machine.Topology, net *nn.Network, g grid.Grid, offset int) []gradPrice {
	pr := Env{Topo: topo}.pricerAt(g, offset)
	var out []gradPrice
	for _, li := range net.WeightedLayers() {
		w := float64(net.Layers[li].Weights())
		out = append(out, gradPrice{words: w, cost: pr.allAllReduce(w)})
	}
	return out
}

// distinctTwin returns a copy of net whose weighted layers each form a
// class of their own: each gets a distinct dropout Rate, a field no
// weighted layer's pricing reads. Its prices are the fresh ones through
// the very same pricers.
func distinctTwin(t *testing.T, net *nn.Network) *nn.Network {
	t.Helper()
	tw := &nn.Network{Name: net.Name, Input: net.Input, Layers: append([]nn.Layer(nil), net.Layers...)}
	for k, li := range net.WeightedLayers() {
		tw.Layers[li].Rate = float64(k + 1)
	}
	if err := tw.Infer(); err != nil {
		t.Fatal(err)
	}
	for k, c := range tw.LayerClasses() {
		if c != k {
			t.Fatalf("%s twin: position %d shares class %d", net.Name, k, c)
		}
	}
	return tw
}

// strategyMixes returns the assignments FullIntegrated is checked under:
// nil, the three uniform ones, both conv splits, Auto's request and its
// three-pass resolution, and a random per-layer mix (an out-of-range
// value prices as Model) that gives the members of one class different
// strategies, Cheapest among them.
func strategyMixes(rng *rand.Rand, e Env, net *nn.Network, B int, g grid.Grid) map[string]Assignment {
	mixed := make(Assignment)
	for _, li := range net.WeightedLayers() {
		mixed[li] = []Strategy{Model, Domain, BatchOnly, Cheapest, Strategy(7)}[rng.Intn(5)]
	}
	return map[string]Assignment{
		"nil":         nil,
		"model":       UniformAssignment(net, Model),
		"domain":      UniformAssignment(net, Domain),
		"batch":       UniformAssignment(net, BatchOnly),
		"conv-batch":  ConvAssignment(net, BatchOnly, Model),
		"conv-domain": ConvAssignment(net, Domain, Model),
		"auto":        ConvAssignment(net, Cheapest, Model),
		"auto choice": referenceAutoAssignment(e, net, B, g),
		"random mix":  mixed,
	}
}

// TestLayerClassesPriceExactly: every pricer that prices a layer class
// once — FullIntegrated under every strategy mix (the Auto request
// included, resolved per class), PriceStages at stage offsets,
// GridLayerTimes and the SpanMemo gradient prices — equals pricing every
// position afresh (a Cheapest request resolved per position by the
// reference rule), bit for bit, and equals the same pricer on a twin network whose classes
// are all singletons. Networks: ResNet50Proxy, VGG16 and random
// repeated-block nets; topologies flat, 2- and 3-level; both placements;
// fresh and memoized spans; two- and three-stage splits.
func TestLayerClassesPriceExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nets := []*nn.Network{nn.ResNet50Proxy(), nn.VGG16()}
	for len(nets) < 8 {
		if n := randomBlockNetwork(rng); n != nil {
			nets = append(nets, n)
		}
	}
	// 12-rank nodes make the 64-rank stage blocks straddle nodes
	// differently at each stage offset.
	topos := []machine.Topology{machine.Flat(knl()), machine.CoriKNLNodes(12), threeLevel()}
	grids := []grid.Grid{{Pr: 1, Pc: 64}, {Pr: 4, Pc: 16}, {Pr: 16, Pc: 4}, {Pr: 64, Pc: 1}}
	cm := compute.KNLCaffe()
	shared := 0
	for _, net := range nets {
		widx, class := net.WeightedLayers(), net.LayerClasses()
		for k, c := range class {
			if c != k {
				shared++
			}
		}
		twin := distinctTwin(t, net)
		L := len(widx)
		parts := []stage.Partition{stage.Balanced(L, 2), stage.Balanced(L, 3)}
		for _, topo := range topos {
			memo, twinMemo := NewSpanMemo(topo, net, 0, 0), NewSpanMemo(topo, twin, 0, 0)
			for _, m := range []*SpanMemo{memo, twinMemo} {
				for _, g := range grids {
					for _, pl := range grid.Placements() {
						for off := 0; off < 3*g.P(); off += g.P() {
							m.Fill(g, pl, off)
						}
					}
				}
				m.Seal()
			}
			for _, g := range grids {
				for off := 0; off < 3*g.P(); off += g.P() {
					want := freshGrads(topo, net, g, off)
					for _, m := range []*SpanMemo{memo, twinMemo} {
						if got := m.positionGrads(g.P(), off); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s on %s, block %d at %d: memoized gradient prices differ from fresh ones",
								net.Name, topo.Name, g.P(), off)
						}
					}
				}
				for _, B := range []int{32, 512} {
					want := freshTimes(cm, net, B, g)
					for _, n := range []*nn.Network{net, twin} {
						if got, _ := cm.GridLayerTimes(n, B, g); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, grid %v, B=%d: GridLayerTimes differs from fresh timing", n.Name, g, B)
						}
					}
				}
				for _, pl := range grid.Placements() {
					for _, spans := range []bool{false, true} {
						env, twinEnv := Env{Topo: topo, Placement: pl}, Env{Topo: topo, Placement: pl}
						if spans {
							env.Spans, twinEnv.Spans = memo, twinMemo
						}
						where := fmt.Sprintf("%s on %s, grid %v, %v, memo %t", net.Name, topo.Name, g, pl, spans)
						checkClassPricing(t, where, rng, env, twinEnv, net, twin, g, parts, cm)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("coverage: no network shares a layer class")
	}
}

func checkClassPricing(t *testing.T, where string, rng *rand.Rand, env, twinEnv Env, net, twin *nn.Network,
	g grid.Grid, parts []stage.Partition, cm compute.Model) {
	t.Helper()
	for _, B := range []int{32, 512} {
		for mix, assign := range strategyMixes(rng, env, net, B, g) {
			want := freshFull(env, net, B, g, assign)
			if got := env.FullIntegrated(net, B, g, assign); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, B=%d: FullIntegrated under %s differs from fresh pricing", where, B, mix)
			}
			if got := twinEnv.FullIntegrated(twin, B, g, assign); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, B=%d: FullIntegrated under %s differs on the twin", where, B, mix)
			}
		}
	}
	const B, M = 512, 2
	sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: M}
	for _, part := range parts {
		// Odd stages run the transposed grid, so no layer may borrow a
		// price from another stage's grid.
		grids := make([]grid.Grid, part.Stages())
		for k := range grids {
			grids[k] = g
			if k%2 == 1 {
				grids[k] = grid.Grid{Pr: g.Pc, Pc: g.Pr}
			}
		}
		for mix, assign := range strategyMixes(rng, env, net, B/M, g) {
			sp, err := env.PriceStages(net, B, part, grids, assign, cm, sched)
			if err != nil {
				t.Fatal(err)
			}
			wantBD, wantTimes := freshStages(env, net, B/M, part, grids, assign, cm)
			if !reflect.DeepEqual(sp.Breakdown, wantBD) {
				t.Fatalf("%s, S=%d: PriceStages under %s prices layers unlike fresh pricing", where, part.Stages(), mix)
			}
			for k, lt := range wantTimes {
				if got := sp.Layers[k]; got.FwdComp != lt.Fwd || got.BwdComp != lt.Bwd {
					t.Fatalf("%s, S=%d: PriceStages under %s times position %d unlike fresh timing", where, part.Stages(), mix, k)
				}
			}
			for k := range sp.Stages {
				lo, hi := part.Bounds(k)
				var comm, comp float64
				for j := lo; j < hi; j++ {
					comm += wantBD.Layers[j].TotalSeconds()
					comp += wantTimes[j].Fwd + wantTimes[j].Bwd
				}
				if sc := sp.Stages[k]; sc.CommSeconds != comm || sc.CompSeconds != comp {
					t.Fatalf("%s, S=%d: stage %d sums differ from fresh pricing under %s", where, part.Stages(), k, mix)
				}
			}
			tw, err := twinEnv.PriceStages(twin, B, part, grids, assign, cm, sched)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sp, tw) {
				t.Fatalf("%s, S=%d: PriceStages under %s differs on the twin", where, part.Stages(), mix)
			}
		}
	}
}

// Position 0 never shares a class, even with a later layer equal to it
// in every field but Name: it alone skips the ∆X all-reduce, so sharing
// would copy that exemption onto the later layer.
func TestFirstPositionNeverShared(t *testing.T) {
	net := nn.MLP("square", 64, 64, 64, 64) // fc1..fc3 are all 64→64
	if got, want := net.LayerClasses(), []int{0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
	for _, topo := range []machine.Topology{machine.Flat(knl()), threeLevel()} {
		env := Env{Topo: topo}
		b := env.FullIntegrated(net, 256, grid.Grid{Pr: 4, Pc: 4}, nil)
		if b.Layers[0].ActReduce != (collective.Cost{}) {
			t.Fatalf("%s: the first weighted layer pays a ∆X all-reduce", topo.Name)
		}
		for _, lc := range b.Layers[1:] {
			if lc.ActReduce.Total() == 0 {
				t.Fatalf("%s: %s copies the first layer's ∆X exemption", topo.Name, lc.Name)
			}
		}
		if want := freshFull(env, net, 256, grid.Grid{Pr: 4, Pc: 4}, nil); !reflect.DeepEqual(b, want) {
			t.Fatalf("%s: Integrated differs from fresh pricing", topo.Name)
		}
	}
}

// positionGrads returns the table's gradient price of every weighted
// layer position on the block of ranks ranks at offset (nil when the
// table has no such block): each position reads its class's price.
func (m *SpanMemo) positionGrads(ranks, offset int) []gradPrice {
	b := m.block(ranks, offset)
	if b < 0 {
		return nil
	}
	out := make([]gradPrice, len(m.class))
	for k, c := range m.class {
		out[k] = m.blocks[b].grad[c]
	}
	return out
}
