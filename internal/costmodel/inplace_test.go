package costmodel

import (
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
		stale := domainCost(net, widx[1], 1024, pr)
		stale.ActReduce = stale.GradReduce
		for k, li := range widx {
			var fresh LayerCost
			modelLayerCost(&fresh, net, li, 1024, pr, k == 0)
			reused := stale
			modelLayerCost(&reused, net, li, 1024, pr, k == 0)
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
// and its pricer and nothing else, and reading the resolved assignment
// off the breakdown adds only the map: every candidate is priced into
// the breakdown slot and the collectives price in place. The breakdown's
// and the map's own allocations are measured, not assumed, since they
// depend on the runtime (the map's on its layout for ResNet50's 50
// layers).
func TestCheapestAllocatesOnlyBreakdownMapAndPricer(t *testing.T) {
	g := grid.Grid{Pr: 8, Pc: 16}
	net, env := memoizedResNet50(g)
	auto := ConvAssignment(net, Cheapest, Model)
	L := len(net.WeightedLayers())
	bdAllocs := testing.AllocsPerRun(50, func() { benchBreakdown = env.newBreakdown(L) })
	allocs := testing.AllocsPerRun(50, func() { benchBreakdown = env.FullIntegrated(net, 1024, g, auto) })
	if want := bdAllocs + 1; allocs != want {
		t.Errorf("FullIntegrated under Cheapest allocates %v times per call, want %v (its breakdown and pricer)", allocs, want)
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
