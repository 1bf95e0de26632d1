package costmodel

import (
	"reflect"
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
)

var (
	benchBreakdown *Breakdown
	benchAssign    Assignment
	sinkCost       collective.Cost
)

// The hierarchical pricer's collective methods price in place: no
// allocation per call, whatever the span count (the 12-rank-node cases
// have two distinct row or column spans).
func TestHierarchicalPricerAllocatesNothing(t *testing.T) {
	g := grid.Grid{Pr: 16, Pc: 32}
	for _, env := range []Env{
		{Topo: threeLevel(), Placement: grid.RowMajor},
		{Topo: machine.CoriKNLNodes(12), Placement: grid.RowMajor},
		{Topo: machine.CoriKNLNodes(12), Placement: grid.ColMajor},
	} {
		pr := env.pricerFor(g)
		if pr.flat {
			t.Fatalf("%s: want a hierarchical pricer", env.Topo.Name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			sinkCost = pr.colAllGather(1e6)
			sinkCost = pr.colAllReduce(1e6)
			sinkCost = pr.rowAllReduce(1e6)
			sinkCost = pr.allAllReduce(1e6)
			sinkCost = pr.gradReduce(3, 1e6)
			sinkCost = pr.halo(1e4)
		})
		if allocs != 0 {
			t.Errorf("%s %v: the pricer's collectives allocate %v times per round, want 0", env.Topo.Name, env.Placement, allocs)
		}
	}
}

// modelLayerCost writes every field of its destination, so priceLayers
// may price into a breakdown's spare capacity as is: pricing into a slot
// that holds another layer's Domain cost (halos, a full-P gradient
// all-reduce) gives the fresh Model cost, for the first layer (no ∆X
// all-reduce) as for any other.
func TestModelLayerCostOverwritesEveryField(t *testing.T) {
	net := nn.AlexNet()
	for _, env := range []Env{FlatEnv(knl()), {Topo: threeLevel(), Placement: grid.ColMajor}} {
		pr := env.pricerFor(grid.Grid{Pr: 4, Pc: 64})
		widx := net.WeightedLayers()
		stale := domainCost(net, widx[1], 1024, &pr)
		stale.ActReduce = stale.GradReduce
		for k, li := range widx {
			var fresh LayerCost
			modelLayerCost(&fresh, net, li, 1024, &pr, k == 0)
			reused := stale
			modelLayerCost(&reused, net, li, 1024, &pr, k == 0)
			if reused != fresh {
				t.Fatalf("%s, layer %d: pricing over a stale slot gave %+v, want %+v", env.Topo.Name, k, reused, fresh)
			}
		}
	}
}

// memoizedResNet50 returns ResNet50Proxy with a three-level Env whose
// SpanMemo holds grid g's classification at rank offset 0 — the state
// the planner prices a leaf in.
func memoizedResNet50(g grid.Grid) (*nn.Network, Env) {
	net := nn.ResNet50Proxy()
	topo := threeLevel()
	memo := NewSpanMemo(topo, net)
	memo.Fill(g, grid.RowMajor, 0)
	return net, Env{Topo: topo, Placement: grid.RowMajor, Spans: memo}
}

// On a memoized three-level Env, the fused Auto pass — FullIntegrated
// under ConvAssignment(net, Cheapest, Model) — allocates its breakdown
// and nothing else (the pricer stays on the stack), and reading the
// resolved assignment off the breakdown adds only the map: every
// candidate is priced into the breakdown slot and the collectives price
// in place. Priced into a warm breakdown (FullIntegratedInto) and read
// into a warm map (AssignInto), as the planner scores a leaf, it
// allocates nothing. The breakdown's and the map's own allocations are
// measured, not assumed, since they depend on the runtime (the map's on
// its layout for ResNet50's 50 layers).
func TestCheapestAllocatesOnlyBreakdownAndMap(t *testing.T) {
	g := grid.Grid{Pr: 8, Pc: 16}
	net, env := memoizedResNet50(g)
	auto := ConvAssignment(net, Cheapest, Model)
	L := len(net.WeightedLayers())
	bdAllocs := testing.AllocsPerRun(50, func() { benchBreakdown = env.newBreakdown(L) })
	allocs := testing.AllocsPerRun(50, func() { benchBreakdown = env.FullIntegrated(net, 1024, g, auto) })
	if allocs != bdAllocs {
		t.Errorf("FullIntegrated under Cheapest allocates %v times per call, want %v (its breakdown)", allocs, bdAllocs)
	}
	mapAllocs := testing.AllocsPerRun(50, func() {
		a := make(Assignment, L)
		for _, li := range net.WeightedLayers() {
			a[li] = Model
		}
		benchAssign = a
	})
	if got := testing.AllocsPerRun(50, func() { benchAssign = benchBreakdown.Assignment() }); got != mapAllocs {
		t.Errorf("Breakdown.Assignment allocates %v times per call, want %v (its map)", got, mapAllocs)
	}
	var warm Breakdown
	env.FullIntegratedInto(&warm, net, 1024, g, auto)
	a := warm.Assignment()
	if got := testing.AllocsPerRun(50, func() {
		env.FullIntegratedInto(&warm, net, 1024, g, auto)
		warm.AssignInto(a)
	}); got != 0 {
		t.Errorf("FullIntegratedInto + AssignInto into warm storage allocate %v times per call, want 0", got)
	}
}

// FullIntegratedInto leaves nothing of its breakdown's past: priced
// into a breakdown last used for another network, grid, assignment or
// topology — longer or shorter, flat or leveled — it equals
// FullIntegrated, level names included, and AssignInto over a map
// holding another network's layers equals Assignment.
func TestFullIntegratedIntoOverwritesAnyBreakdown(t *testing.T) {
	type call struct {
		env    Env
		net    *nn.Network
		B      int
		g      grid.Grid
		assign func(*nn.Network) Assignment
	}
	cheapest := func(n *nn.Network) Assignment { return ConvAssignment(n, Cheapest, Model) }
	domain := func(n *nn.Network) Assignment { return ConvAssignment(n, Domain, Model) }
	model := func(*nn.Network) Assignment { return nil }
	res50, leveled := memoizedResNet50(grid.Grid{Pr: 8, Pc: 16})
	calls := []call{
		{leveled, res50, 1024, grid.Grid{Pr: 8, Pc: 16}, cheapest},
		{leveled, res50, 1024, grid.Grid{Pr: 8, Pc: 16}, model},
		{Env{Topo: machine.CoriKNLNodes(12), Placement: grid.ColMajor}, nn.VGG16(), 256, grid.Grid{Pr: 2, Pc: 32}, cheapest},
		{Env{Topo: threeLevel(), Placement: grid.ColMajor}, nn.AlexNet(), 512, grid.Grid{Pr: 4, Pc: 64}, domain},
		{FlatEnv(knl()), nn.AlexNet(), 512, grid.Grid{Pr: 4, Pc: 64}, domain},
		{FlatEnv(knl()), res50, 2048, grid.Grid{Pr: 1, Pc: 128}, cheapest},
	}
	var reused Breakdown
	a := make(Assignment)
	for i := 0; i < 2*len(calls); i++ {
		c := calls[i%len(calls)]
		assign := c.assign(c.net)
		c.env.FullIntegratedInto(&reused, c.net, c.B, c.g, assign)
		want := c.env.FullIntegrated(c.net, c.B, c.g, assign)
		if !reflect.DeepEqual(&reused, want) {
			t.Fatalf("call %d (%s %v %v): the reused breakdown differs from a fresh one", i, c.net.Name, c.env.Topo.Name, c.g)
		}
		if got := reused.AssignInto(a); !reflect.DeepEqual(got, want.Assignment()) {
			t.Fatalf("call %d: AssignInto over a used map gives %v, want %v", i, got, want.Assignment())
		}
	}
}

// BenchmarkAutoIntegratedResNet50ThreeLevel is one planner leaf's Auto
// pricing on a repeated-block network: ResNet50Proxy (50 weighted
// layers, 18 classes) on an 8 × 16 grid of 16-rank nodes in 128-rank
// racks, through a filled SpanMemo — the fused Cheapest pass plus the
// resolved assignment read off its breakdown.
func BenchmarkAutoIntegratedResNet50ThreeLevel(b *testing.B) {
	g := grid.Grid{Pr: 8, Pc: 16}
	net, env := memoizedResNet50(g)
	auto := ConvAssignment(net, Cheapest, Model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBreakdown = env.FullIntegrated(net, 1024, g, auto)
		benchAssign = benchBreakdown.Assignment()
	}
}
