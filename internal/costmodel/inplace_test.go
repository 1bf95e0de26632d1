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

// modelLayerCost writes every field of its destination, so Env.auto
// may reuse one scratch LayerCost across layers: pricing into a slot
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

// On a memoized three-level Env, AutoAssignment allocates its
// assignment map and its pricer and nothing else: the Model candidate
// is priced into a stack scratch and the collectives price in place.
// The map's own allocations are measured, not assumed, since they
// depend on the runtime's map layout (4 on go1.24 for ResNet50's 50
// layers, so 5 in all).
func TestAutoAssignmentAllocatesOnlyMapAndPricer(t *testing.T) {
	g := grid.Grid{Pr: 8, Pc: 16}
	net, env := memoizedResNet50(g)
	widx := net.WeightedLayers()
	mapAllocs := testing.AllocsPerRun(50, func() {
		a := make(Assignment, len(widx))
		for _, li := range widx {
			a[li] = Model
		}
		benchAssign = a
	})
	allocs := testing.AllocsPerRun(50, func() { benchAssign = env.AutoAssignment(net, 1024, g) })
	if want := mapAllocs + 1; allocs != want {
		t.Errorf("AutoAssignment allocates %v times per call, want %v (its assignment map and pricer)", allocs, want)
	}
}

// BenchmarkAutoIntegratedResNet50ThreeLevel is one planner leaf's Auto
// pricing on a repeated-block network: ResNet50Proxy (50 weighted
// layers, 18 classes) on an 8 × 16 grid of 16-rank nodes in 128-rank
// racks, through a filled SpanMemo.
func BenchmarkAutoIntegratedResNet50ThreeLevel(b *testing.B) {
	g := grid.Grid{Pr: 8, Pc: 16}
	net, env := memoizedResNet50(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBreakdown, benchAssign = env.AutoIntegrated(net, 1024, g)
	}
}
