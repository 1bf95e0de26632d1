package costmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// randomHierarchy returns a topology of the given depth whose bounded
// level sizes are random and mostly misaligned (an outer size is rarely
// a multiple of the inner one) and whose outermost level is unbounded.
func randomHierarchy(rng *rand.Rand, depth int) machine.Topology {
	t := machine.Topology{Name: fmt.Sprintf("random-%d", depth), PeakFlops: knl().PeakFlops}
	size := 1
	for l := 0; l < depth; l++ {
		lv := machine.Level{Name: fmt.Sprintf("l%d", l),
			Link: machine.Link{Alpha: 1e-7 * float64(1+rng.Intn(50)), Beta: machine.WordBytes / (1e9 * float64(1+rng.Intn(60)))}}
		if l < depth-1 {
			size += 1 + rng.Intn(3*size+4)
			lv.GroupSize = size
		}
		t.Levels = append(t.Levels, lv)
	}
	return t
}

// filledKey is one (grid, placement, offset) a table was filled with.
type filledKey struct {
	g      grid.Grid
	pl     grid.Placement
	offset int
}

// fillSearch fills and seals a table the way a search over P ranks
// and the given stage counts does: every factorization of P/S, both
// placements, every stage's rank offset. It returns the filled keys.
func fillSearch(m *SpanMemo, P int, counts []int) []filledKey {
	var keys []filledKey
	for _, S := range counts {
		if P%S != 0 {
			continue
		}
		for _, g := range grid.Factorizations(P / S) {
			for _, pl := range grid.Placements() {
				for k := 0; k < S; k++ {
					m.Fill(g, pl, k*g.P())
					keys = append(keys, filledKey{g, pl, k * g.P()})
				}
			}
		}
	}
	m.Seal()
	return keys
}

// TestSpanTableEntries: on random group-size hierarchies — one to
// MaxLevels levels, misaligned sizes, an unbounded outermost level — a
// table filled for every factorization of P/S, both placements and
// every stage offset holds, for each filled key, exactly the fresh
// ColGroupSpansAt, RowGroupSpansAt, AllSpanAt and ColNeighborsLevelAt
// and the fresh gradient price of every weighted layer position. Every
// entry is one distinct (progression, offset), a grid's column groups
// and its transpose's row groups share one, and the table holds fewer
// entries than its keys name progressions.
func TestSpanTableEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	nets := []*nn.Network{nn.AlexNet(), nn.ResNet50Proxy()}
	for trial := 0; trial < 60; trial++ {
		topo := randomHierarchy(rng, 1+trial%machine.MaxLevels)
		sizes := topo.GroupSizes()
		net := nets[trial%len(nets)]
		P := []int{12, 24, 30, 36, 64, 96, 128}[rng.Intn(7)]
		m := NewSpanMemo(topo, net, 0, 0)
		keys := fillSearch(m, P, []int{1, 2, 3, 4})
		entries := 0
		for bi := range m.blocks {
			b := &m.blocks[bi]
			entries += len(b.progs)
			for i := range b.progs {
				for j := range b.progs[:i] {
					if b.progs[i].pg == b.progs[j].pg {
						t.Fatalf("%s, P=%d: block %d at %d holds %+v twice", topo.Name, P, b.ranks, b.offset, b.progs[i].pg)
					}
				}
			}
		}
		if entries >= 2*len(keys) {
			t.Fatalf("%s, P=%d: %d entries for %d keys: no progression is shared", topo.Name, P, entries, len(keys))
		}
		for _, k := range keys {
			where := fmt.Sprintf("%s (sizes %v), P=%d, grid %v, %v, offset %d", topo.Name, sizes, P, k.g, k.pl, k.offset)
			p := pricer{env: Env{Topo: topo, Placement: k.pl}, g: k.g}
			if !m.lookup(&p, k.offset) {
				t.Fatalf("%s: filled key missing from the table", where)
			}
			if want := k.g.ColGroupSpansAt(sizes, k.pl, k.offset); !reflect.DeepEqual(p.col, want) {
				t.Fatalf("%s: column spans %v, want %v", where, p.col, want)
			}
			if want := k.g.RowGroupSpansAt(sizes, k.pl, k.offset); !reflect.DeepEqual(p.row, want) {
				t.Fatalf("%s: row spans %v, want %v", where, p.row, want)
			}
			if want := k.g.AllSpanAt(sizes, k.offset); !reflect.DeepEqual(p.all, want) {
				t.Fatalf("%s: block span %v, want %v", where, p.all, want)
			}
			if want := k.g.ColNeighborsLevelAt(sizes, k.pl, k.offset); p.haloLevel != want {
				t.Fatalf("%s: halo level %d, want %d", where, p.haloLevel, want)
			}
			want := freshGrads(topo, net, k.g, k.offset)
			for pos := range want {
				if got := p.grad[p.gradClass[pos]]; got != want[pos] {
					t.Fatalf("%s: layer %d gradient price %+v, want %+v", where, pos, got, want[pos])
				}
			}
			// The transpose's row groups under the other placement are
			// this grid's column groups: one entry.
			tr := grid.Grid{Pr: k.g.Pc, Pc: k.g.Pr}
			other := grid.Placements()[1-int(k.pl)]
			b := &m.blocks[m.block(k.g.P(), k.offset)]
			if a, c := b.find(k.g.ColGroups(k.pl)), b.find(tr.RowGroups(other)); a == nil || a != c {
				t.Fatalf("%s: the column groups and the transpose's %v row groups do not share an entry", where, other)
			}
		}
	}
}

// Many goroutines pricing through one sealed table read it only (run
// under -race, a write would be reported) and get the fresh prices: the
// fused Auto pass on every grid of P, and a two-stage split — its second
// stage at rank offset P/2 — on every grid of P/2.
func TestSpanTableConcurrentReaders(t *testing.T) {
	net := nn.ResNet50Proxy()
	topo := threeLevel()
	const P = 64
	m := NewSpanMemo(topo, net, 0, 0)
	fillSearch(m, P, []int{1, 2})
	auto := ConvAssignment(net, Cheapest, Model)
	part := stage.Balanced(len(net.WeightedLayers()), 2)
	sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 2}
	price := func(spans *SpanMemo) []any {
		var out []any
		for _, pl := range grid.Placements() {
			env := Env{Topo: topo, Placement: pl, Spans: spans}
			for _, g := range grid.Factorizations(P) {
				out = append(out, env.FullIntegrated(net, 512, g, auto))
			}
			for _, g := range grid.Factorizations(P / 2) {
				sp, err := env.PriceStages(net, 512, part, []grid.Grid{g, g}, auto, compute.KNLCaffe(), sched)
				if err != nil {
					t.Error(err)
				}
				out = append(out, sp)
			}
		}
		return out
	}
	want := price(nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if got := price(m); !reflect.DeepEqual(got, want) {
				t.Errorf("reader %d: prices through the table differ from fresh ones", w)
			}
		}(w)
	}
	wg.Wait()
}
