// Package costmodel implements the paper's communication-complexity
// formulas — Eq. 3 (pure model), Eq. 4 (pure batch), Eq. 6 (redistribution),
// Eq. 7 (pure domain), Eq. 8 (integrated 1.5D model+batch) and Eq. 9 (fully
// integrated model+batch+domain) — as per-layer α–β cost breakdowns, plus
// the 2D-SUMMA comparison of Section 4 and the communication/computation
// overlap variant of Fig. 8.
//
// All formulas follow the paper's conventions: sums run over weighted
// layers (conv and FC); the activation all-gather sum runs over all
// weighted layers; the ∆X all-reduce sum skips the first weighted layer
// (no gradient is propagated past layer 1); volumes are in words.
//
// Layer classes: each per-layer term depends on the layer's geometry,
// the grid, the batch and the rank placement, never on the layer's
// name, and position matters only for the first weighted layer (no ∆X
// all-reduce). nn.Network.LayerClasses groups equal weighted layers —
// ResNet50Proxy's 50 fall into 18 classes, VGG16's 16 into 12 — and
// every per-layer pricing loop prices a class once per call and copies
// the result to later members with their own Index and Name: the Auto
// choice (AutoIntegrated, AutoAssignment), FullIntegrated per (class,
// strategy), PriceStages per stage, the SpanMemo gradient prices, and
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
)

func (s Strategy) String() string {
	switch s {
	case Model:
		return "model"
	case Domain:
		return "domain"
	case BatchOnly:
		return "batch"
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

// Halo returns the combined forward + backward halo-exchange cost of
// Eq. 7. The split fields exist because the two directions move different
// volumes (input vs output panels) and the timeline simulator prices them
// at different points of the schedule.
func (lc LayerCost) Halo() collective.Cost { return lc.FwdHalo.Add(lc.BwdHalo) }

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

// newBreakdown starts a breakdown sized for nlayers layer costs,
// stamping the environment's level names when pricing is
// topology-aware. The capacity hint matters: the planner's search loop
// builds thousands of breakdowns, and growing Layers by doubling would
// copy the (wide) LayerCost values several times per candidate.
func (e Env) newBreakdown(nlayers int) *Breakdown {
	b := &Breakdown{Layers: make([]LayerCost, 0, nlayers)}
	if !e.Flat() {
		b.LevelNames = e.Topo.LevelNames()
	}
	return b
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

// GradReduceSeconds returns the batch-parallel portion (the ∆W
// all-reduce), i.e. the cross-hatched bars of Fig. 6.
func (b *Breakdown) GradReduceSeconds() float64 {
	var t float64
	for i := range b.Layers {
		t += b.Layers[i].GradReduce.Total()
	}
	return t
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

// PureModel returns Eq. 3: 1-D model parallelism over P processes.
//
//	T = Σ_{i=1..L} (α⌈log P⌉ + β·B·(P−1)/P·d_i)
//	  + 2·Σ_{i=2..L} (α⌈log P⌉ + β·B·(P−1)/P·d_{i−1})
//
// Priced against the environment's topology, the P-wide
// all-gather/all-reduce groups span the whole machine. It is Integrated
// on the P × 1 grid, whose one-rank ∆W groups cost nothing.
func (e Env) PureModel(net *nn.Network, B, P int) *Breakdown {
	return e.Integrated(net, B, grid.Grid{Pr: P, Pc: 1})
}

// PureBatch returns Eq. 4: batch parallelism over P processes, priced
// against the environment's topology.
//
//	T = 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|)
func (e Env) PureBatch(net *nn.Network, B, P int) *Breakdown {
	return e.FullIntegrated(net, B, grid.Grid{Pr: 1, Pc: P}, UniformAssignment(net, BatchOnly))
}

// Redistribute returns Eq. 6: the one-time cost of switching layer i's
// activations from a batch distribution to a model distribution — an
// all-gather of B·d_i words over P processes, priced against the
// environment's topology. The paper notes this is asymptotically free
// relative to the subsequent model-parallel step.
func (e Env) Redistribute(net *nn.Network, li, B, P int) collective.Cost {
	l := &net.Layers[li]
	pr := e.pricerFor(grid.Grid{Pr: P, Pc: 1})
	return pr.colAllGather(float64(B) * float64(l.OutSize()))
}

// PureDomain returns Eq. 7: domain parallelism over P processes. Each
// process holds all weights but a 1/P horizontal slab of every sample.
//
//	T = Σ_i (α + β·B·X_W·X_C·⌊kh/2⌋)        forward input halo
//	  + Σ_i (α + β·B·Y_W·Y_C·⌊kw/2⌋)        backward output halo
//	  + 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|)  gradient all-reduce
//
// For fully-connected layers the paper sets kh = X_H, kw = X_W ("the halo
// region will consist of all of the input activations"); we encode that
// intent directly: the FC halo volume is the entire input (forward) and
// output (backward) activation block, which is why domain parallelism is
// never chosen for FC layers.
//
// Priced against the environment's topology, halo partners are spatially
// adjacent machine ranks and the gradient all-reduce spans the whole
// machine.
func (e Env) PureDomain(net *nn.Network, B, P int) *Breakdown {
	// Pure domain does not split the batch (Pc = 1): every process holds
	// a slab of all B samples, so halo volumes carry the full B of Eq. 7.
	return e.FullIntegrated(net, B, grid.Grid{Pr: P, Pc: 1}, UniformAssignment(net, Domain))
}

// domainLayerCost is the Eq. 7 / Eq. 9 per-layer domain cost with halo
// volumes scaled by the local batch B/Pc and grad, the layer's gradient
// all-reduce over all P processes.
func domainLayerCost(net *nn.Network, li, B int, pr *pricer, grad collective.Cost) LayerCost {
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
		if bwdHalo > 0 {
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

// Integrated returns Eq. 8: the 1.5D integrated model+batch algorithm on a
// Pr × Pc grid. Every weighted layer is treated as model-parallel along Pr.
//
//	T = Σ_{i=1..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_i)
//	  + 2·Σ_{i=2..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_{i−1})
//	  + 2·Σ_i (α⌈log Pc⌉ + β·(Pc−1)/Pc·|W_i|/Pr)
//
// With Pr = 1 it reduces exactly to Eq. 4; with Pc = 1 the first two sums
// are exactly Eq. 3 and the third vanishes.
//
// Priced against the environment's topology, the all-gather/∆X groups
// are the placement's column groups, the ∆W groups its row groups.
func (e Env) Integrated(net *nn.Network, B int, g grid.Grid) *Breakdown {
	return e.FullIntegrated(net, B, g, nil)
}

// modelLayerCost is the Eq. 8 per-layer cost for a layer in L_M.
func modelLayerCost(net *nn.Network, li, B int, pr *pricer, first bool) LayerCost {
	l := &net.Layers[li]
	lc := LayerCost{Index: li, Name: l.Name, Strategy: Model}
	localB := float64(B) / float64(pr.g.Pc)
	lc.AllGather = pr.colAllGather(localB * float64(l.OutSize()))
	if !first {
		lc.ActReduce = pr.colAllReduce(localB * float64(l.InSize()))
	}
	lc.GradReduce = pr.rowAllReduce(float64(l.Weights()) / float64(pr.g.Pr))
	return lc
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

// layerCost prices the weighted layer li, at position k of the
// network's weighted layers, under strategy s — the Eq. 9 per-layer term
// every breakdown is built from. Only the network's very first weighted
// layer (k = 0) skips the Model ∆X all-reduce (no gradient propagates
// past layer 1). A Model layer that merely comes first *within L_M* —
// e.g. when the leading conv layers are Domain, or as the first layer of
// a pipeline stage — still pays it, because its ∆X must reach the layer
// below.
func layerCost(net *nn.Network, k, li, B int, pr *pricer, s Strategy) LayerCost {
	switch s {
	case Domain:
		return domainLayerCost(net, li, B, pr, pr.gradReduce(k, float64(net.Layers[li].Weights())))
	case BatchOnly:
		return batchOnlyLayerCost(net, li, pr.gradReduce(k, float64(net.Layers[li].Weights())))
	}
	return modelLayerCost(net, li, B, pr, k == 0)
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
// assign (absent layers are Model); b.Layers must already hold
// positions [0, lo). A layer whose class (nn.Network.LayerClasses) has
// a member in [lo, k) under the same strategy copies that member's cost
// instead of pricing it: the terms read only the fields the class
// shares, so the copy is the fresh price bit for bit.
func priceLayers(b *Breakdown, net *nn.Network, lo, hi, B int, pr *pricer, assign Assignment) {
	widx, class := net.WeightedLayers(), net.LayerClasses()
	for k := lo; k < hi; k++ {
		li := widx[k]
		s := assign[li]
		if s != Domain && s != BatchOnly {
			s = Model
		}
		j := max(class[k], lo)
		for ; j < k; j++ {
			if class[j] == class[k] && b.Layers[j].Strategy == s {
				break
			}
		}
		if j < k {
			b.appendCopy(j, net, li)
		} else {
			b.Layers = append(b.Layers, layerCost(net, k, li, B, pr, s))
		}
	}
}

// Assignment maps each weighted layer index (an index into Network.Layers)
// to its Strategy. Layers absent from the map default to Model, making
// FullIntegrated(…, nil, …) ≡ Integrated (L_M = all layers, L_D = ∅).
type Assignment map[int]Strategy

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
// only the full-P gradient all-reduce. Every group is priced against the
// environment's topology; AutoIntegrated chooses the Auto assignment and
// prices it in the same pass. Each (layer class, strategy) pair is
// priced once.
func (e Env) FullIntegrated(net *nn.Network, B int, g grid.Grid, assign Assignment) *Breakdown {
	L := len(net.WeightedLayers())
	b := e.newBreakdown(L)
	priceLayers(b, net, 0, L, B, e.pricerFor(g), assign)
	return b
}

// AutoIntegrated is Eq. 9 under the planner's Auto assignment, chosen
// and priced in one pass: every conv layer takes the cheapest strategy
// available to it on grid g at batch B, every FC layer Model (domain
// halos there would ship whole activation panels). Domain is available
// when g.Pr fits the layer's input height, BatchOnly when g.P() ≤ B;
// ties keep Model, then Domain. A layer's Eq. 9 cost depends only on its
// own strategy, so the winning candidate's LayerCost is the layer's
// breakdown entry, and the returned pair equals
// (FullIntegrated(net, B, g, a), a) bit for bit. Domain and BatchOnly
// share one priced gradient all-reduce. On a hierarchical topology the
// choice is placement-sensitive: a strategy whose collective groups
// pack onto nodes gets cheaper.
func (e Env) AutoIntegrated(net *nn.Network, B int, g grid.Grid) (*Breakdown, Assignment) {
	return e.auto(net, B, g, true)
}

// AutoAssignment is AutoIntegrated's assignment alone, for callers that
// re-price it at their own micro-batch size or rank offsets.
func (e Env) AutoAssignment(net *nn.Network, B int, g grid.Grid) Assignment {
	_, a := e.auto(net, B, g, false)
	return a
}

// auto is the one Auto pricing loop: it returns the assignment and, when
// breakdown is set, the breakdown of each layer's winning cost. Each
// layer class is chosen and priced once, at its first member; later
// members take that member's strategy and cost.
func (e Env) auto(net *nn.Network, B int, g grid.Grid, breakdown bool) (*Breakdown, Assignment) {
	widx, class := net.WeightedLayers(), net.LayerClasses()
	var b *Breakdown
	if breakdown {
		b = e.newBreakdown(len(widx))
	}
	a := make(Assignment, len(widx))
	pr := e.pricerFor(g)
	for k, li := range widx {
		if c := class[k]; c != k {
			a[li] = a[widx[c]]
			if b != nil {
				b.appendCopy(c, net, li)
			}
			continue
		}
		l := &net.Layers[li]
		best := modelLayerCost(net, li, B, pr, k == 0)
		domain, batch := g.Pr <= l.In.H, g.P() <= B
		if l.Kind == nn.Conv && (domain || batch) {
			bestCost := best.TotalSeconds()
			grad := pr.gradReduce(k, float64(l.Weights()))
			if domain {
				lc := domainLayerCost(net, li, B, pr, grad)
				if c := lc.TotalSeconds(); c < bestCost {
					best, bestCost = lc, c
				}
			}
			if batch {
				lc := batchOnlyLayerCost(net, li, grad)
				if lc.TotalSeconds() < bestCost {
					best = lc
				}
			}
		}
		a[li] = best.Strategy
		if b != nil {
			b.Layers = append(b.Layers, best)
		}
	}
	return b, a
}

// RedistributionSeconds prices the Eq. 6 redistribution at every layer
// boundary where the strategy changes: the activations must be
// re-laid-out from the upstream distribution into the replicated panels
// the model-parallel layers consume. On a Pr × Pc grid this is a
// column-group all-gather of the local activation panel — α⌈log Pr⌉ +
// β·(B/Pc)·(Pr−1)/Pr·d_i per boundary (Eq. 6 with P = Pr on the local
// batch; the paper's pure-model form is the Pc = 1 special case) —
// charged once forward and once for the transposed backward
// redistribution. With Pr = 1 the layout is already compatible and the
// cost vanishes.
//
// part places the boundaries on a stage-partitioned pipeline whose
// stages all run grid g, stage s on the rank block starting at s·g.P():
// the boundary into the weighted layer at position k is priced on the
// block of the stage that owns that layer. The zero Partition (and any
// single-stage one) prices every boundary on the block at rank 0.
func (e Env) RedistributionSeconds(net *nn.Network, B int, g grid.Grid, assign Assignment, part stage.Partition) float64 {
	if g.Pr == 1 {
		return 0
	}
	widx := net.WeightedLayers()
	var pr *pricer
	owner := 0
	var secs float64
	for k := 1; k < len(widx); k++ {
		prev, cur := assign[widx[k-1]], assign[widx[k]]
		if prev == cur {
			continue
		}
		s := 0
		if part.Stages() > 1 {
			s = part.StageOf(k)
		}
		if pr == nil || s != owner {
			pr, owner = e.pricerAt(g, s*g.P()), s
		}
		words := float64(B) / float64(g.Pc) * float64(net.Layers[widx[k-1]].OutSize())
		secs += 2 * pr.colAllGather(words).Total()
	}
	return secs
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
