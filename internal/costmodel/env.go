package costmodel

import (
	"slices"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
)

// Env is the pricing environment for the Eq. 3–9 formulas: the machine
// topology plus the rank placement that decides where each Pr/Pc
// collective group physically sits. The flat environment (FlatEnv) is
// the paper's setting — a uniform topology prices every term with the
// flat closed forms, bit-for-bit — while a hierarchical topology prices
// each group against its actual level span: groups inside one node ride
// the fast link, one-rank-per-node groups the node uplink, and
// straddling groups pay a recursive decomposition level by level (see
// internal/collective).
type Env struct {
	Topo      machine.Topology
	Placement grid.Placement
	// Spans, when non-nil, supplies memoized level-span classifications
	// of the collective groups and whole-block gradient all-reduce prices
	// (see SpanMemo). Prices are bit-identical with or without it; nil
	// classifies and prices afresh per pricing call.
	Spans *SpanMemo
}

// FlatEnv wraps a flat machine as the one-level environment: the
// paper's setting, where every Eq. 3–9 term is the flat closed form.
func FlatEnv(m machine.Machine) Env {
	return Env{Topo: machine.Flat(m)}
}

// Flat reports whether the environment degenerates to a flat machine.
func (e Env) Flat() bool { return e.Topo.Uniform() }

// gradPrice is one layer class's whole-block ∆W all-reduce: the words
// reduced (the class's weight count) and their price.
type gradPrice struct {
	words float64
	cost  collective.Cost
}

// SpanMemo is one search's span table, for one topology and one
// network: the level-span classification of every collective group
// progression a search prices, once per (progression, rank offset), and
// per rank block the span of the whole block and the ∆W all-reduce
// price of every weighted layer class over it. A search prices the same
// (grid, placement, offset) many times over — per micro-batch count, per
// partition — and the classification depends on nothing else; a
// progression is shared by a grid's column groups and its transpose's
// row groups (grid.Progression), and the Domain/BatchOnly gradient
// all-reduce depends only on the block's rank count and offset, the
// layer's weight count and the topology's links, so one price serves
// every grid and placement sharing that block.
//
// Fill registers what a search will price and Seal classifies and
// prices it all into storage the table owns: one arena of LevelStats,
// one of LevelSpans and one of gradient prices. Neither is safe for
// concurrent use; once sealed, the table is read-only and any number of
// goroutines may price through Envs carrying it (the planner fills and
// seals it serially while enumerating one search, reads it from the
// worker pool, then drops it). A grid whose entries the table lacks is
// classified and priced afresh without being stored, as is every grid
// before Seal, and a stored entry is the fresh one. Classifications are
// used only when the Env's topology has the table's level sizes, prices
// only when its links match too, and a gradient price only for the same
// weight count at the same weighted-layer position, so the table can
// never change a price. A nil *SpanMemo is valid and memoizes nothing.
type SpanMemo struct {
	topo  machine.Topology
	sizes []int
	words []float64 // |W| of each layer class of the network
	class []int     // each weighted layer's index into words
	// blocks and progs are the registered entries; Seal groups progs by
	// block, each block's entries one window of progs.
	blocks []spanBlock
	progs  []progSpans
	sealed bool
}

// spanBlock is one rank block of the table: ranks machine ranks from
// offset on, the span of the whole block, the ∆W all-reduce price of
// every layer class over it, and the block's progression entries.
type spanBlock struct {
	ranks, offset int
	all           grid.LevelSpan
	grad          []gradPrice
	progs         []progSpans
}

// progSpans is one progression entry of a block: the distinct level
// spans of its groups and, when it was filled as a grid's column groups,
// the innermost level holding every halo-exchange pair (-1 otherwise).
type progSpans struct {
	pg    grid.Progression
	block int // index into SpanMemo.blocks
	col   bool
	halo  int
	spans []grid.LevelSpan
}

// NewSpanMemo returns an empty table for pricing net on topology t,
// sized for blocks rank blocks and fills Fill calls (more grow it).
func NewSpanMemo(t machine.Topology, net *nn.Network, blocks, fills int) *SpanMemo {
	t.Levels = append([]machine.Level(nil), t.Levels...)
	widx, class := net.WeightedLayers(), net.LayerClasses()
	classes := 0
	for k, c := range class {
		if c == k {
			classes++
		}
	}
	m := &SpanMemo{topo: t, sizes: t.GroupSizes(), words: make([]float64, 0, classes), class: make([]int, len(widx)),
		blocks: make([]spanBlock, 0, blocks), progs: make([]progSpans, 0, fills)}
	for k, c := range class {
		if c == k {
			m.class[k] = len(m.words)
			m.words = append(m.words, float64(net.Layers[widx[k]].Weights()))
		} else {
			m.class[k] = m.class[c]
		}
	}
	return m
}

// Fill registers grid g at rank offset `offset` under placement pl: its
// rank block and its column- and row-group progressions, unless already
// registered. It panics once the table is sealed.
func (m *SpanMemo) Fill(g grid.Grid, pl grid.Placement, offset int) {
	if m == nil {
		return
	}
	if m.sealed {
		panic("costmodel: SpanMemo.Fill after Seal")
	}
	b := m.block(g.P(), offset)
	if b < 0 {
		b = len(m.blocks)
		m.blocks = append(m.blocks, spanBlock{ranks: g.P(), offset: offset})
	}
	m.register(b, g.ColGroups(pl), true)
	m.register(b, g.RowGroups(pl), false)
}

// block returns the index of the block of ranks ranks at offset, or -1.
func (m *SpanMemo) block(ranks, offset int) int {
	for i := range m.blocks {
		if b := &m.blocks[i]; b.ranks == ranks && b.offset == offset {
			return i
		}
	}
	return -1
}

// register adds progression pg of block b, marked col when it is some
// grid's column groups, unless already registered.
func (m *SpanMemo) register(b int, pg grid.Progression, col bool) {
	for i := range m.progs {
		if e := &m.progs[i]; e.block == b && e.pg == pg {
			e.col = e.col || col
			return
		}
	}
	m.progs = append(m.progs, progSpans{pg: pg, block: b, col: col})
}

// Seal classifies every registered progression and rank block into the
// table's arenas and prices every block's gradient all-reduce per layer
// class: each class is priced once, its members share the price (their
// weight counts are equal). After Seal the table answers lookups and
// takes no more Fills.
func (m *SpanMemo) Seal() {
	if m == nil || m.sealed {
		return
	}
	m.sealed = true
	L := len(m.sizes)
	// Where level sizes and offsets align, every group of a progression
	// has one shape; the arena grows past that only where groups
	// straddle units differently.
	stats := make([]grid.LevelStat, 0, (len(m.progs)+len(m.blocks))*L)
	type extent struct{ lo, hi int }
	at := make([]extent, len(m.progs)+len(m.blocks))
	for i := range m.progs {
		e := &m.progs[i]
		lo := len(stats)
		stats = e.pg.AppendShapes(stats, m.sizes, m.blocks[e.block].offset)
		at[i] = extent{lo, len(stats)}
		e.halo = -1
		if e.col {
			e.halo = e.pg.NeighborsLevel(m.sizes, m.blocks[e.block].offset)
		}
	}
	for i := range m.blocks {
		b := &m.blocks[i]
		lo := len(stats)
		stats = grid.Progression{Count: 1, Step: 1, N: b.ranks, Stride: 1}.AppendShapes(stats, m.sizes, b.offset)
		at[len(m.progs)+i] = extent{lo, len(stats)}
	}
	spans := make([]grid.LevelSpan, len(stats)/L)
	view := func(x extent, ranks int) []grid.LevelSpan {
		out := spans[x.lo/L : x.hi/L : x.hi/L]
		for d := range out {
			lo := x.lo + d*L
			out[d] = grid.LevelSpan{Ranks: ranks, Levels: stats[lo : lo+L : lo+L]}
		}
		return out
	}
	for i := range m.progs {
		e := &m.progs[i]
		e.spans = view(at[i], e.pg.N)
	}
	grads := make([]gradPrice, len(m.blocks)*len(m.words))
	for i := range m.blocks {
		b := &m.blocks[i]
		b.all = view(at[len(m.progs)+i], b.ranks)[0]
		pr := pricer{env: Env{Topo: m.topo}, g: grid.Grid{Pr: 1, Pc: b.ranks}, all: b.all,
			flat: m.topo.Uniform(), m: m.topo.Machine()}
		b.grad = grads[i*len(m.words) : (i+1)*len(m.words) : (i+1)*len(m.words)]
		for c, w := range m.words {
			b.grad[c] = gradPrice{words: w, cost: pr.allAllReduce(w)}
		}
	}
	// Group the entries by block, each block's a window of progs.
	slices.SortStableFunc(m.progs, func(a, b progSpans) int { return a.block - b.block })
	for lo := 0; lo < len(m.progs); {
		hi := lo + 1
		for hi < len(m.progs) && m.progs[hi].block == m.progs[lo].block {
			hi++
		}
		m.blocks[m.progs[lo].block].progs = m.progs[lo:hi:hi]
		lo = hi
	}
}

// lookup sets p's spans — and, when the links match too, its gradient
// prices — from the sealed table's entries for p's grid and placement at
// rank offset `offset`, and reports whether the table holds them (a nil
// table holds nothing).
func (m *SpanMemo) lookup(p *pricer, offset int) bool {
	if m == nil || !m.sealed {
		return false
	}
	sizes, links := m.matches(p.env.Topo)
	if !sizes {
		return false
	}
	bi := m.block(p.g.P(), offset)
	if bi < 0 {
		return false
	}
	b := &m.blocks[bi]
	col, row := b.find(p.g.ColGroups(p.env.Placement)), b.find(p.g.RowGroups(p.env.Placement))
	if col == nil || row == nil || col.halo < 0 {
		return false
	}
	p.col, p.row, p.all, p.haloLevel = col.spans, row.spans, b.all, col.halo
	if links {
		p.grad, p.gradClass = b.grad, m.class
	}
	return true
}

// find returns the block's entry for progression pg, or nil.
func (b *spanBlock) find(pg grid.Progression) *progSpans {
	for i := range b.progs {
		if b.progs[i].pg == pg {
			return &b.progs[i]
		}
	}
	return nil
}

// matches reports whether t has the level sizes the table classifies
// against and, if so, whether it also has the links the table prices
// against.
func (m *SpanMemo) matches(t machine.Topology) (sizes, links bool) {
	if len(t.Levels) != len(m.topo.Levels) {
		return false, false
	}
	links = true
	for i, lv := range t.Levels {
		mine := m.topo.Levels[i]
		if lv.GroupSize != mine.GroupSize {
			return false, false
		}
		if lv.Link != mine.Link {
			links = false
		}
	}
	return true, links
}

// pricer prices the per-layer Eq. 3–9 collectives of one grid at one
// rank offset against its level spans, classified once per pricer (or
// looked up in the Env's SpanMemo, together with its gradient
// all-reduce prices). It holds no pointer into itself, so a pricer built
// for one pricing call stays on that call's stack.
type pricer struct {
	env Env
	g   grid.Grid
	// col and row are the distinct level spans of the column groups and
	// row groups, all the span of the whole rank block; haloLevel is the
	// innermost topology level containing every halo-exchange pair. A
	// flat pricer leaves them unset: its collectives read only group
	// sizes.
	col, row  []grid.LevelSpan
	all       grid.LevelSpan
	haloLevel int
	// grad is the table's whole-block ∆W all-reduce price per layer
	// class and gradClass each weighted layer position's class (both nil
	// when the Env carries no matching table entry).
	grad      []gradPrice
	gradClass []int
	// flat caches Env.Flat() and m the degenerate machine so the search
	// loop prices uniform topologies with the closed forms directly —
	// one Uniform() scan per pricer instead of one per collective.
	flat bool
	m    machine.Machine
}

func (e Env) pricerFor(g grid.Grid) pricer {
	return e.pricerAt(g, 0)
}

// pricerAt builds a pricer for a grid whose process (0,0) sits at
// machine rank `offset` — the rank block of one pipeline stage. On a
// flat machine the offset is irrelevant (every rank is identical); on a
// hierarchical one it decides how the stage's collective groups straddle
// node/rack boundaries, so two stages with the same grid can price
// differently depending on where their blocks start.
func (e Env) pricerAt(g grid.Grid, offset int) pricer {
	if e.Flat() {
		// The uniform fast path in internal/collective reads only the
		// group size; skip the O(P·L) placement scan.
		return pricer{env: e, g: g, flat: true, m: e.Topo.Machine()}
	}
	p := pricer{env: e, g: g}
	if !e.Spans.lookup(&p, offset) {
		sizes := e.Topo.GroupSizes()
		p.col = g.ColGroupSpansAt(sizes, e.Placement, offset)
		p.row = g.RowGroupSpansAt(sizes, e.Placement, offset)
		p.all = g.AllSpanAt(sizes, offset)
		p.haloLevel = g.ColNeighborsLevelAt(sizes, e.Placement, offset)
	}
	return p
}

// colAllGather prices the forward activation all-gather over the
// Pr-sized column groups (worst group shape governs).
func (p *pricer) colAllGather(words float64) collective.Cost {
	if p.flat {
		return collective.AllGather(p.g.Pr, words, p.m)
	}
	var worst collective.Cost
	for i := range p.col {
		if c := collective.AllGatherLeveled(p.col[i], words, p.env.Topo); i == 0 || c.Total() > worst.Total() {
			worst = c
		}
	}
	return worst
}

// colAllReduce prices the backprop ∆X all-reduce over the column groups.
func (p *pricer) colAllReduce(words float64) collective.Cost {
	if p.flat {
		return collective.AllReduce(p.g.Pr, words, p.m)
	}
	return p.maxAllReduce(p.col, words)
}

// rowAllReduce prices the ∆W all-reduce over the Pc-sized row groups.
func (p *pricer) rowAllReduce(words float64) collective.Cost {
	if p.flat {
		return collective.AllReduce(p.g.Pc, words, p.m)
	}
	return p.maxAllReduce(p.row, words)
}

// maxAllReduce prices the all-reduce over each of the distinct level
// spans of a non-flat pricer and returns the most expensive, ties
// keeping the first span (collective.MaxCost's rule, without its
// closure call per span).
func (p *pricer) maxAllReduce(spans []grid.LevelSpan, words float64) collective.Cost {
	var worst collective.Cost
	for i := range spans {
		if c := collective.AllReduceLeveled(spans[i], words, p.env.Topo); i == 0 || c.Total() > worst.Total() {
			worst = c
		}
	}
	return worst
}

// gradReduce prices the Domain/BatchOnly ∆W all-reduce of words words
// over the whole rank block for the weighted layer at position k: the
// table's price of k's class when it is for the same words, a fresh
// allAllReduce otherwise.
func (p *pricer) gradReduce(k int, words float64) collective.Cost {
	if k < len(p.gradClass) {
		if g := &p.grad[p.gradClass[k]]; g.words == words {
			return g.cost
		}
	}
	return p.allAllReduce(words)
}

// allAllReduce prices a full-P all-reduce over the whole rank block.
func (p *pricer) allAllReduce(words float64) collective.Cost {
	if p.flat {
		return collective.AllReduce(p.g.P(), words, p.m)
	}
	return collective.AllReduceLeveled(p.all, words, p.env.Topo)
}

// halo prices one halo-exchange message between spatially adjacent ranks
// of a column group.
func (p *pricer) halo(words float64) collective.Cost {
	if p.flat {
		return collective.PointToPoint(words, p.m)
	}
	return collective.PointToPointTopo(p.haloLevel, words, p.env.Topo)
}
