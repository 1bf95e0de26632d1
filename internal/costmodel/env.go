package costmodel

import (
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

// spanKey identifies one classification: a grid at a rank offset under a
// placement.
type spanKey struct {
	g      grid.Grid
	pl     grid.Placement
	offset int
}

// spanSet is one grid's classification: the distinct level spans of
// its column groups and row groups, the span of its whole rank block,
// and the innermost topology level containing every halo-exchange pair.
// grad holds the memoized whole-block ∆W all-reduce price of every
// weighted layer (see SpanMemo).
type spanSet struct {
	col, row  []grid.LevelSpan
	all       grid.LevelSpan
	haloLevel int
	grad      []gradPrice
}

// gradPrice is one weighted layer's whole-block ∆W all-reduce: the
// words reduced (the layer's weight count) and their price.
type gradPrice struct {
	words float64
	cost  collective.Cost
}

// blockKey identifies one rank block: its rank count and the machine
// rank it starts at — everything a whole-block all-reduce's span
// depends on.
type blockKey struct{ ranks, offset int }

func classifySpans(sizes []int, k spanKey) spanSet {
	return spanSet{
		col:       k.g.ColGroupSpansAt(sizes, k.pl, k.offset),
		row:       k.g.RowGroupSpansAt(sizes, k.pl, k.offset),
		all:       k.g.AllSpanAt(sizes, k.offset),
		haloLevel: k.g.ColNeighborsLevelAt(sizes, k.pl, k.offset),
	}
}

// SpanMemo memoizes, for one topology and one network, the level-span
// classification of the collective groups per (grid, placement, rank
// offset) and the whole-block ∆W all-reduce price of every weighted
// layer per (rank block, offset). A search prices the same (grid,
// placement, offset) many times over — per micro-batch count, per
// partition — and the classification depends on nothing else; the
// Domain/BatchOnly gradient all-reduce depends only on the block's rank
// count and offset, the layer's weight count and the topology's links,
// so one price serves every grid and placement sharing that block. Fill
// is not safe for concurrent use; once filling stops, any number of
// goroutines may price through Envs carrying the memo (the planner
// fills it serially while enumerating one search and reads it from the
// worker pool, then drops it). A key that was never filled is
// classified and priced afresh without being stored, and a stored entry
// is the fresh one. Classifications are used only when the Env's
// topology has the memo's level sizes, prices only when its links match
// too, and a gradient price only for the same weight count at the same
// weighted-layer position, so the memo can never change a price. A nil
// *SpanMemo is valid and memoizes nothing.
type SpanMemo struct {
	topo  machine.Topology
	sizes []int
	words []float64 // |W| of each weighted layer of the network, in order
	class []int     // the network's LayerClasses
	m     map[spanKey]spanSet
	grads map[blockKey][]gradPrice
}

// NewSpanMemo returns an empty memo for pricing net on topology t.
func NewSpanMemo(t machine.Topology, net *nn.Network) *SpanMemo {
	t.Levels = append([]machine.Level(nil), t.Levels...)
	widx := net.WeightedLayers()
	m := &SpanMemo{topo: t, sizes: t.GroupSizes(), words: make([]float64, len(widx)),
		class: net.LayerClasses(), m: make(map[spanKey]spanSet), grads: make(map[blockKey][]gradPrice)}
	for k, li := range widx {
		m.words[k] = float64(net.Layers[li].Weights())
	}
	return m
}

// Fill classifies grid g at rank offset `offset` under placement pl and
// prices the gradient all-reduce of its rank block, unless already
// memoized. Each layer class is priced once; its later members share
// the first member's price (their weight counts are equal).
func (m *SpanMemo) Fill(g grid.Grid, pl grid.Placement, offset int) {
	if m == nil {
		return
	}
	k := spanKey{g, pl, offset}
	if _, ok := m.m[k]; ok {
		return
	}
	set := classifySpans(m.sizes, k)
	bk := blockKey{g.P(), offset}
	if set.grad = m.grads[bk]; set.grad == nil {
		pr := pricer{env: Env{Topo: m.topo}, g: g, all: set.all, flat: m.topo.Uniform(), m: m.topo.Machine()}
		set.grad = make([]gradPrice, len(m.words))
		for i, w := range m.words {
			if c := m.class[i]; c != i {
				set.grad[i] = set.grad[c]
				continue
			}
			set.grad[i] = gradPrice{words: w, cost: pr.allAllReduce(w)}
		}
		m.grads[bk] = set.grad
	}
	m.m[k] = set
}

// spans returns the classification of (g, e.Placement, offset) on
// e.Topo: the one memoized in e.Spans when that memo classifies against
// the same level sizes (carrying its gradient prices only when the links
// match too), a fresh one without prices otherwise.
func (e Env) spans(g grid.Grid, offset int) spanSet {
	k := spanKey{g, e.Placement, offset}
	if m := e.Spans; m != nil {
		if sizes, links := m.matches(e.Topo); sizes {
			if set, ok := m.m[k]; ok {
				if !links {
					set.grad = nil
				}
				return set
			}
		}
	}
	return classifySpans(e.Topo.GroupSizes(), k)
}

// matches reports whether t has the level sizes the memo classifies
// against and, if so, whether it also has the links the memo prices
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
// looked up in the Env's SpanMemo, together with its memoized gradient
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
	// grad is the memoized whole-block ∆W all-reduce price per weighted
	// layer position (nil when the Env carries no matching memo entry).
	grad []gradPrice
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
	set := e.spans(g, offset)
	return pricer{env: e, g: g, col: set.col, row: set.row, all: set.all, haloLevel: set.haloLevel, grad: set.grad}
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
// memoized price when the memo holds one for the same words at k, a
// fresh allAllReduce otherwise.
func (p *pricer) gradReduce(k int, words float64) collective.Cost {
	if k < len(p.grad) && p.grad[k].words == words {
		return p.grad[k].cost
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
