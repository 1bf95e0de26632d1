package collective

import (
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

var benchCost Cost

// BenchmarkAllReduceTopoThreeLevel prices the ∆X all-reduce of a 1M-word
// panel over every distinct column-group span of a 32 × 16 grid,
// row-major on 16-rank nodes in 128-rank racks behind a spine: the
// groups straddle nodes and racks, so every level is active with
// several planes — the hierarchical collective the planner prices
// per layer and per grid.
func BenchmarkAllReduceTopoThreeLevel(b *testing.B) {
	topo := machine.Topology{
		Name: "three-level",
		Levels: []machine.Level{
			{Name: "node", Link: machine.Link{Alpha: 5e-7, Beta: machine.WordBytes / 60e9}, GroupSize: 16},
			{Name: "rack", Link: machine.Link{Alpha: 1e-6, Beta: machine.WordBytes / 12e9}, GroupSize: 128},
			{Name: "spine", Link: machine.Link{Alpha: 2e-6, Beta: machine.WordBytes / 6e9}},
		},
		PeakFlops: machine.CoriKNL().PeakFlops,
	}
	spans := grid.Grid{Pr: 32, Pc: 16}.ColGroupSpansAt(topo.GroupSizes(), grid.RowMajor, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range spans {
			benchCost = AllReduceTopo(s, 1e6, topo)
		}
	}
}
