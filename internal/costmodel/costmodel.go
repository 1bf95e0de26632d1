// Package costmodel implements the paper's communication-complexity
// formulas — Eq. 3 (pure model), Eq. 4 (pure batch), Eq. 6 (redistribution),
// Eq. 7 (pure domain: FullIntegrated on a P × 1 grid with every layer
// Domain), Eq. 8 (integrated 1.5D model+batch) and Eq. 9 (fully
// integrated model+batch+domain) — as per-layer α–β cost breakdowns, plus
// the communication/computation overlap variant of Fig. 8. The Section 4
// volume comparison with 2D SUMMA is checked in summa_test.go.
//
// All formulas follow the paper's conventions: sums run over weighted
// layers (conv and FC); the activation all-gather sum runs over all
// weighted layers; the ∆X all-reduce sum, and a Domain conv's backward
// halo, skip the first weighted layer (no gradient is propagated past
// layer 1); volumes are in words.
//
// Layer classes: each per-layer term depends on the layer's geometry,
// the grid, the batch and the rank placement, never on the layer's
// name, and position matters only for the first weighted layer (no ∆X
// all-reduce, and no backward halo under Domain). nn.Network.LayerClasses groups equal weighted layers —
// ResNet50Proxy's 50 fall into 18 classes, VGG16's 16 into 12 — and
// every per-layer pricing loop prices a class once per call and copies
// the result to later members with their own Index and Name:
// FullIntegrated and PriceStages per (class, requested strategy) — the
// Auto choice included, since Cheapest is a strategy the same loop
// resolves — the SpanMemo gradient prices, and
// compute.Model.GridLayerTimes. Running sums are not shared: the
// breakdown totals, Memory, the stage sums and the overhead still add
// every position in order. So each float comes from the same
// operations on the same inputs as pricing every position afresh, and
// plans, traces and cache keys are bit-identical to it
// (TestLayerClassesPriceExactly).
package costmodel

import (
	"fmt"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
)

// Strategy says how the Pr grid dimension is used for one layer in the
// fully integrated scheme of Eq. 9.
type Strategy int

const (
	// Model: the layer is in L_M — Pr partitions the weight matrix
	// (1.5D model parallelism, Fig. 5).
	Model Strategy = iota
	// Domain: the layer is in L_D — Pr partitions each sample spatially
	// (halo exchanges, Fig. 3); weights are replicated on all P processes
	// and the gradient all-reduce spans all P.
	Domain
	// BatchOnly: the layer uses Pr = 1 — pure batch parallelism across
	// all P processes (the Fig. 7 treatment of convolutional layers).
	BatchOnly
	// Cheapest (the planner's Auto mode) is resolved by the pricing
	// loop: a conv layer takes the cheapest of Model, Domain (when Pr
	// fits its input height) and BatchOnly (when P ≤ B) where it is
	// priced, ties keeping Model, then Domain; an FC layer takes Model.
	Cheapest
)

func (s Strategy) String() string {
	switch s {
	case Model:
		return "model"
	case Domain:
		return "domain"
	case BatchOnly:
		return "batch"
	case Cheapest:
		return "cheapest"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// LayerCost is the α–β communication cost of one weighted layer, split by
// term so figures can show e.g. the batch-parallel (gradient all-reduce)
// portion separately, as the cross-hatching in Fig. 6 does.
type LayerCost struct {
	Index    int    // index into Network.Layers
	Name     string // layer name
	Strategy Strategy

	AllGather  collective.Cost // forward activation all-gather (model part)
	ActReduce  collective.Cost // backprop ∆X all-reduce (model part)
	GradReduce collective.Cost // ∆W all-reduce (batch part)
	FwdHalo    collective.Cost // forward input halo exchange (domain part)
	BwdHalo    collective.Cost // backward output halo exchange (domain part)
}

// Total returns the layer's total cost.
func (lc LayerCost) Total() collective.Cost {
	t := lc.AllGather
	t.Accumulate(&lc.ActReduce)
	t.Accumulate(&lc.GradReduce)
	t.Accumulate(&lc.FwdHalo)
	t.Accumulate(&lc.BwdHalo)
	return t
}

// TotalSeconds returns Total().Total() without the per-level
// bookkeeping — the quantity the planner's inner loop compares.
func (lc *LayerCost) TotalSeconds() float64 {
	return lc.AllGather.Total() + lc.ActReduce.Total() + lc.GradReduce.Total() +
		lc.FwdHalo.Total() + lc.BwdHalo.Total()
}

// Breakdown is a whole-network per-iteration communication cost.
type Breakdown struct {
	Layers []LayerCost

	// LevelNames labels the link levels of the topology the breakdown
	// was priced against (innermost first), matching the
	// collective.Cost.Levels attribution its layer costs carry; nil for
	// flat-machine breakdowns.
	LevelNames []string
}

// resetBreakdown empties b for nlayers layer costs, keeping its storage
// when it is large enough, and stamps the environment's level names when
// pricing is topology-aware (nil on a flat machine). The capacity
// matters: growing Layers by doubling would copy the (wide) LayerCost
// values several times per pricing call.
func (e Env) resetBreakdown(b *Breakdown, nlayers int) {
	if b.Layers == nil || cap(b.Layers) < nlayers {
		b.Layers = make([]LayerCost, 0, nlayers)
	}
	b.Layers = b.Layers[:0]
	if e.Flat() {
		b.LevelNames = nil
		return
	}
	n := len(e.Topo.Levels)
	if cap(b.LevelNames) < n {
		b.LevelNames = make([]string, n)
	}
	b.LevelNames = b.LevelNames[:n]
	for i, lv := range e.Topo.Levels {
		b.LevelNames[i] = lv.Name
	}
}

// LevelSeconds sums the per-level attribution across every layer and
// collective: entry i is the seconds the iteration spends on link level
// i (innermost first, labeled by LevelNames). nil for flat breakdowns.
func (b *Breakdown) LevelSeconds() []float64 {
	if len(b.LevelNames) == 0 {
		return nil
	}
	t := b.Total()
	out := make([]float64, len(b.LevelNames))
	for i := range out {
		out[i] = t.Level(i)
	}
	return out
}

// Total returns the per-iteration total communication cost.
func (b *Breakdown) Total() collective.Cost {
	var t collective.Cost
	for i := range b.Layers {
		l := &b.Layers[i]
		t.Accumulate(&l.AllGather)
		t.Accumulate(&l.ActReduce)
		t.Accumulate(&l.GradReduce)
		t.Accumulate(&l.FwdHalo)
		t.Accumulate(&l.BwdHalo)
	}
	return t
}

// TotalSeconds returns Total().Total(), computed without the per-level
// bookkeeping (Total() is element-wise, so the seconds sum commutes).
func (b *Breakdown) TotalSeconds() float64 {
	var t float64
	for i := range b.Layers {
		t += b.Layers[i].TotalSeconds()
	}
	return t
}

// Assignment returns the strategy each layer of b was priced under,
// Cheapest requests resolved.
func (b *Breakdown) Assignment() Assignment {
	return b.AssignInto(make(Assignment, len(b.Layers)))
}

// AssignInto is Assignment into the caller's map: it replaces every
// entry of the non-nil a with b's resolved strategies and returns a, so
// a map reused across pricing calls costs no allocation once grown.
func (b *Breakdown) AssignInto(a Assignment) Assignment {
	clear(a)
	for i := range b.Layers {
		a[b.Layers[i].Index] = b.Layers[i].Strategy
	}
	return a
}

// ForwardSeconds returns the forward-pass communication (activation
// all-gathers plus the forward halo exchanges).
func (b *Breakdown) ForwardSeconds() float64 {
	var t float64
	for i := range b.Layers {
		l := &b.Layers[i]
		t += l.AllGather.Total() + l.FwdHalo.Total()
	}
	return t
}

// BackwardSeconds returns the backprop communication (∆X and ∆W
// all-reduces plus the backward halo exchanges) — the portion Fig. 8
// overlaps with computation.
func (b *Breakdown) BackwardSeconds() float64 {
	var t float64
	for i := range b.Layers {
		l := &b.Layers[i]
		t += l.ActReduce.Total() + l.GradReduce.Total() + l.BwdHalo.Total()
	}
	return t
}

// domainLayerCost is the Eq. 7 / Eq. 9 per-layer domain cost with halo
// volumes scaled by the local batch B/Pc and grad, the layer's gradient
// all-reduce over all P processes. A conv that is the network's first
// weighted layer (first) forms no ∆X, so it exchanges no backward halo
// (Eq. 3's i ≥ 2 bound, as in modelLayerCost).
func domainLayerCost(net *nn.Network, li, B int, pr *pricer, grad collective.Cost, first bool) LayerCost {
	l := &net.Layers[li]
	lc := LayerCost{Index: li, Name: l.Name, Strategy: Domain}
	localB := float64(B) / float64(pr.g.Pc)
	switch l.Kind {
	case nn.Conv:
		fwdHalo := localB * float64(l.In.W*l.In.C) * float64(l.KH/2)
		bwdHalo := localB * float64(l.Out.W*l.Out.C) * float64(l.KW/2)
		if fwdHalo > 0 {
			lc.FwdHalo = pr.halo(fwdHalo)
		}
		if bwdHalo > 0 && !first {
			lc.BwdHalo = pr.halo(bwdHalo)
		}
	case nn.FC:
		// Whole input forward, whole output gradient backward.
		lc.FwdHalo = pr.halo(localB * float64(l.InSize()))
		lc.BwdHalo = pr.halo(localB * float64(l.OutSize()))
	}
	lc.GradReduce = grad
	return lc
}

// modelLayerCost writes the Eq. 8 per-layer cost for a layer in L_M
// into lc, setting every field (lc may hold an earlier layer's cost).
func modelLayerCost(lc *LayerCost, net *nn.Network, li, B int, pr *pricer, first bool) {
	l := &net.Layers[li]
	lc.Index, lc.Name, lc.Strategy = li, l.Name, Model
	localB := float64(B) / float64(pr.g.Pc)
	lc.AllGather = pr.colAllGather(localB * float64(l.OutSize()))
	lc.ActReduce = collective.Cost{}
	if !first {
		lc.ActReduce = pr.colAllReduce(localB * float64(l.InSize()))
	}
	lc.GradReduce = pr.rowAllReduce(float64(l.Weights()) / float64(pr.g.Pr))
	lc.FwdHalo, lc.BwdHalo = collective.Cost{}, collective.Cost{}
}

// FCGradReduceSeconds returns the summed ∆W all-reduce seconds of the
// network's fully-connected layers under the Model strategy on grid g —
// the exact rowAllReduce term modelLayerCost charges them. Every planner
// mode assigns Model to FC layers (domain halos there would ship whole
// activation panels, and conv-batch applies only to conv layers), so for
// a fixed (grid, placement) this sum is a monotone additive floor under
// any per-layer assignment: the branch-and-bound lower bound of the
// planner's non-overlapped search adds it to the compute time before
// deciding whether a candidate can still beat the incumbent.
func (e Env) FCGradReduceSeconds(net *nn.Network, g grid.Grid) float64 {
	pr := e.pricerFor(g)
	var secs float64
	for _, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		if l.Kind != nn.FC {
			continue
		}
		secs += pr.rowAllReduce(float64(l.Weights()) / float64(g.Pr)).Total()
	}
	return secs
}

// batchOnlyLayerCost is the Fig. 7 per-layer cost for a conv layer forced
// to pure batch parallelism across all P processes: only grad, its
// gradient all-reduce over all P.
func batchOnlyLayerCost(net *nn.Network, li int, grad collective.Cost) LayerCost {
	return LayerCost{Index: li, Name: net.Layers[li].Name, Strategy: BatchOnly, GradReduce: grad}
}

// layerCost writes into lc the Eq. 9 cost of the weighted layer li, at
// position k of the network's weighted layers, under strategy s — the
// per-layer term every breakdown is built from. Only the network's very
// first weighted layer (k = 0) skips the Model ∆X all-reduce (no
// gradient propagates past layer 1). A Model layer that merely comes
// first *within L_M* — e.g. when the leading conv layers are Domain, or
// as the first layer of a pipeline stage — still pays it, because its ∆X
// must reach the layer below. Cheapest writes the Model cost and copies
// a strictly cheaper Domain or BatchOnly candidate (sharing one priced
// gradient all-reduce) over it.
func layerCost(lc *LayerCost, net *nn.Network, k, li, B int, pr *pricer, s Strategy) {
	l := &net.Layers[li]
	switch s {
	case Domain:
		*lc = domainLayerCost(net, li, B, pr, pr.gradReduce(k, float64(l.Weights())), k == 0)
	case BatchOnly:
		*lc = batchOnlyLayerCost(net, li, pr.gradReduce(k, float64(l.Weights())))
	case Cheapest:
		modelLayerCost(lc, net, li, B, pr, k == 0)
		domain, batch := pr.g.Pr <= l.In.H, pr.g.P() <= B
		if l.Kind != nn.Conv || !(domain || batch) {
			return
		}
		grad := pr.gradReduce(k, float64(l.Weights()))
		if domain {
			if c := domainLayerCost(net, li, B, pr, grad, k == 0); c.TotalSeconds() < lc.TotalSeconds() {
				*lc = c
			}
		}
		if batch {
			if c := batchOnlyLayerCost(net, li, grad); c.TotalSeconds() < lc.TotalSeconds() {
				*lc = c
			}
		}
	default:
		modelLayerCost(lc, net, li, B, pr, k == 0)
	}
}

// appendCopy appends position j's cost as the cost of the weighted
// layer li, a member of j's layer class: the Eq. 9 terms are j's, and
// only Index and Name differ.
func (b *Breakdown) appendCopy(j int, net *nn.Network, li int) {
	b.Layers = append(b.Layers, b.Layers[j])
	lc := &b.Layers[len(b.Layers)-1]
	lc.Index, lc.Name = li, net.Layers[li].Name
}

// priceLayers appends to b the Eq. 9 cost of the weighted layers at
// positions [lo, hi) on pr at batch B, each under its strategy in
// assign (Assignment.of), resolving Cheapest on pr, and reports whether
// any layer requested Cheapest; b.Layers must already hold positions
// [0, lo) and have capacity for hi. A layer whose class
// (nn.Network.LayerClasses) has a member in [lo, k) under the same
// requested strategy copies that member's cost instead of pricing it:
// the terms, and a Cheapest choice, read only the fields the class
// shares, so the copy is the fresh price bit for bit.
func priceLayers(b *Breakdown, net *nn.Network, lo, hi, B int, pr *pricer, assign Assignment) (cheapest bool) {
	widx, class := net.WeightedLayers(), net.LayerClasses()
	for k := lo; k < hi; k++ {
		li := widx[k]
		s := assign.of(li)
		cheapest = cheapest || s == Cheapest
		j := max(class[k], lo)
		for ; j < k; j++ {
			if class[j] == class[k] && assign.of(widx[j]) == s {
				break
			}
		}
		if j < k {
			b.appendCopy(j, net, li)
			continue
		}
		b.Layers = b.Layers[:k+1] // layerCost writes every field
		layerCost(&b.Layers[k], net, k, li, B, pr, s)
	}
	return cheapest
}

// Assignment maps each weighted layer index (an index into Network.Layers)
// to its Strategy. Layers absent from the map default to Model, making
// FullIntegrated(…, nil, …) ≡ Integrated (L_M = all layers, L_D = ∅).
type Assignment map[int]Strategy

// of returns layer li's strategy: Model when absent or out of range.
func (a Assignment) of(li int) Strategy {
	switch s := a[li]; s {
	case Domain, BatchOnly, Cheapest:
		return s
	}
	return Model
}

// UniformAssignment returns an Assignment giving strategy s to every
// weighted layer.
func UniformAssignment(net *nn.Network, s Strategy) Assignment {
	a := make(Assignment)
	for _, li := range net.WeightedLayers() {
		a[li] = s
	}
	return a
}

// ConvAssignment returns the split used by Figs. 7 and 10: convolutional
// layers get convStrategy (BatchOnly for Fig. 7, Domain for Fig. 10) and
// fully-connected layers get fcStrategy (Model).
func ConvAssignment(net *nn.Network, convStrategy, fcStrategy Strategy) Assignment {
	a := make(Assignment)
	for _, li := range net.WeightedLayers() {
		if net.Layers[li].Kind == nn.Conv {
			a[li] = convStrategy
		} else {
			a[li] = fcStrategy
		}
	}
	return a
}

// FullIntegrated returns Eq. 9: the fully integrated model+batch+domain
// cost on a Pr × Pc grid with a per-layer strategy assignment. L_M layers
// pay Eq. 8 terms over the Pr/Pc groups; L_D layers pay halo exchanges at
// local batch B/Pc plus a full-P gradient all-reduce; BatchOnly layers pay
// only the full-P gradient all-reduce; Cheapest layers are resolved in
// the same pass. Every group is priced against the environment's
// topology: the all-gather/∆X groups are the placement's column groups,
// the ∆W groups its row groups. Each (layer class, requested strategy)
// pair is priced once.
//
// With a nil assignment (every layer Model) it is Eq. 8, the 1.5D
// integrated model+batch algorithm:
//
//	T = Σ_{i=1..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_i)
//	  + 2·Σ_{i=2..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_{i−1})
//	  + 2·Σ_i (α⌈log Pc⌉ + β·(Pc−1)/Pc·|W_i|/Pr)
//
// On the 1 × P grid it is exactly Eq. 4, batch parallelism over P
// processes, as is UniformAssignment(net, BatchOnly) there:
//
//	T = 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|)
//
// On the P × 1 grid the first two sums are exactly Eq. 3, 1-D model
// parallelism over P processes, and the one-rank ∆W groups cost nothing:
//
//	T = Σ_{i=1..L} (α⌈log P⌉ + β·B·(P−1)/P·d_i)
//	  + 2·Σ_{i=2..L} (α⌈log P⌉ + β·B·(P−1)/P·d_{i−1})
func (e Env) FullIntegrated(net *nn.Network, B int, g grid.Grid, assign Assignment) *Breakdown {
	b := new(Breakdown)
	e.FullIntegratedInto(b, net, B, g, assign)
	return b
}

// FullIntegratedInto is FullIntegrated priced into the caller's
// breakdown: b is overwritten, its storage reused, and ends equal to
// what FullIntegrated returns. A caller that prices many candidates and
// keeps only their totals (the planner's search loop) reuses one b and
// allocates nothing per call.
func (e Env) FullIntegratedInto(b *Breakdown, net *nn.Network, B int, g grid.Grid, assign Assignment) {
	L := len(net.WeightedLayers())
	e.resetBreakdown(b, L)
	pr := e.pricerFor(g)
	priceLayers(b, net, 0, L, B, &pr, assign)
}

// RedistributionSeconds prices the Eq. 6 redistribution at every
// weighted-layer boundary where the activation layout changes, as the
// executable engine's layer walk (parallel.RunFullIntegrated) relays it
// out. A layer holds its column group's activations as whole samples
// (Model layers, Domain FC layers), as row slabs (Domain convs) or as a
// B/P sample shard (BatchOnly). One relayout is one column-group
// all-gather of the boundary panel — α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d,
// with d the InSize of the layer above the boundary, after any pooling
// (Eq. 6 with P = Pr on the local batch; the paper's pure-model
// form is the Pc = 1 special case): moving into whole samples gathers
// forward and slices the ∆ backward, moving out of them slices forward
// and gathers the ∆ backward. So a boundary costs no gather between two
// whole-sample layers, one where exactly one side holds whole samples,
// and two between slabs and a shard (through whole samples and back).
// With Pr = 1 every layout is whole samples and the cost vanishes.
//
// part places the boundaries on a stage-partitioned pipeline whose
// stages all run grid g, stage s on the rank block starting at s·g.P():
// the boundary into the weighted layer at position k is priced on the
// block of the stage that owns that layer. The zero Partition (and any
// single-stage one) prices every boundary on the block at rank 0. An
// unresolved Cheapest layer panics.
func (e Env) RedistributionSeconds(net *nn.Network, B int, g grid.Grid, assign Assignment, part stage.Partition) float64 {
	widx := net.WeightedLayers()
	var pr pricer
	owner := -1
	var secs float64
	for k := range widx {
		if assign[widx[k]] == Cheapest {
			panic("costmodel: redistribution of an unresolved cheapest layer")
		}
		if k == 0 || g.Pr == 1 {
			continue
		}
		gathers := relayoutGathers(net, assign, widx[k-1], widx[k])
		if gathers == 0 {
			continue
		}
		s := 0
		if part.Stages() > 1 {
			s = part.StageOf(k)
		}
		if s != owner {
			pr, owner = e.pricerAt(g, s*g.P()), s
		}
		words := float64(B) / float64(g.Pc) * float64(net.Layers[widx[k]].InSize())
		secs += float64(gathers) * pr.colAllGather(words).Total()
	}
	return secs
}

// relayoutGathers is the number of column-group all-gathers of the
// boundary from weighted layer li into weighted layer lj under assign:
// one per side that does not hold whole samples, none when both sides
// hold the same layout.
func relayoutGathers(net *nn.Network, assign Assignment, li, lj int) int {
	// layout names a layout by the strategy that runs on it: Model for
	// whole samples (Domain FC too), Domain for row slabs, BatchOnly for
	// the sample shard.
	layout := func(li int) Strategy {
		if s := assign[li]; s == BatchOnly || s == Domain && net.Layers[li].Kind == nn.Conv {
			return s
		}
		return Model
	}
	switch a, b := layout(li), layout(lj); {
	case a == b:
		return 0
	case a == Model || b == Model:
		return 1
	}
	return 2
}

// VolumeRatioBatchOverModel returns Eq. 5 for one convolutional layer: the
// ratio of pure-batch to pure-model communication *volume*,
// 2·|W_i| / (3·B·d_i) = 2·kh·kw·X_C / (3·B·Y_H·Y_W). Values > 1 mean model
// parallelism moves fewer words.
func VolumeRatioBatchOverModel(l *nn.Layer, B int) float64 {
	return 2 * float64(l.Weights()) / (3 * float64(B) * float64(l.OutSize()))
}

// ModelBatchCrossoverB returns the largest batch size for which model
// parallelism has lower communication volume than batch parallelism on
// layer l (Eq. 5): B < 2·kh·kw·X_C/(3·Y_H·Y_W). Returns 0 when batch
// parallelism always wins.
func ModelBatchCrossoverB(l *nn.Layer) int {
	num := 2 * float64(l.Weights())
	den := 3 * float64(l.OutSize())
	cross := num / den
	b := int(cross)
	if float64(b) == cross && b > 0 {
		b-- // strict inequality
	}
	if b < 0 {
		return 0
	}
	return b
}
