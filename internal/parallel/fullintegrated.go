package parallel

import (
	"fmt"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// RunFullIntegrated trains a network with the paper's integrated
// model+batch+domain algorithm (Section 2.4 / Eq. 9) on a Pr × Pc grid,
// each weighted layer running the strategy assign gives it (nil: every
// layer Model, as in costmodel.Env.FullIntegrated):
//
//   - the batch is split over the Pc columns (B need not divide evenly),
//     and each column group of Pr ranks trains on its batch shard;
//   - a Model layer (L_M) shards its weights over the column group — a
//     block of conv filters whose output channels are all-gathered, or a
//     block of FC output rows (the 1.5D algorithm, Fig. 5); ∆X is
//     all-reduced over the column group and ∆W over the row group;
//   - a Domain conv (L_D) keeps all weights and a horizontal slab of every
//     sample, exchanging halo rows with its vertical neighbours (Fig. 3);
//     its ∆W is all-reduced over all P ranks;
//   - a Domain FC layer runs replicated over the column group (its "halo"
//     is the whole input), its ∆W all-reduced over the row group.
//
// One layout rule joins them: a layer that is not a Domain conv, fed by
// slabs, first all-gathers the rows over the column group (its backward
// slices the ∆ back); a Domain conv fed by full samples slices its rows
// (its backward gathers the ∆ rows).
//
// 1×P is pure batch parallelism (Fig. 2 / Eq. 4): every column group is
// one rank holding all the weights, and each weighted layer all-reduces
// its ∆W over the P-rank row group. P×1 with nil is pure model
// parallelism (Fig. 1 / Eq. 3), P×1 with
// costmodel.UniformAssignment(spec, Domain) pure domain parallelism
// (Fig. 3 / Eq. 7), a network without convolutions the 1.5D algorithm
// (Fig. 5 / Eq. 8), and costmodel.ConvAssignment(spec, Domain, Model) the
// configuration that scales beyond P = B (Fig. 10). BatchOnly and
// Cheapest layers are rejected; on the 1×P grid every layer already runs
// as costmodel prices BatchOnly.
func RunFullIntegrated(w *mpi.World, cfg Config, ds *data.Dataset, g grid.Grid, assign costmodel.Assignment) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if g.P() != w.Size() {
		return Result{}, fmt.Errorf("parallel: grid %v needs %d ranks, world has %d", g, g.P(), w.Size())
	}
	if g.Pc > cfg.BatchSize {
		return Result{}, fmt.Errorf("parallel: Pc=%d exceeds the batch %d", g.Pc, cfg.BatchSize)
	}
	inSlab, slab, err := layout(cfg.Spec, g.Pr, assign)
	if err != nil {
		return Result{}, err
	}
	return RunRanks(w, func(proc *mpi.Proc) ([]*tensor.Matrix, []float64) {
		r, c := g.Coords(proc.Rank())
		e := newWalk(cfg, assign, inSlab, slab, proc, proc.CommFrom(g.RowGroup(r)), proc.CommFrom(g.ColGroup(c)))
		opt := cfg.optimizer()
		bShard := grid.BlockShard(cfg.BatchSize, g.Pc, c)
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			loss, d := nn.SoftmaxCrossEntropy(e.forward(x.SliceSamples(bShard.Lo, bShard.Hi)), labels[bShard.Lo:bShard.Hi])
			// Rescale the 1/localB mean gradient to the global 1/B mean.
			d.ScaleInPlace(float64(bShard.Len()) / float64(cfg.BatchSize))
			opt.Step(e.shards, e.backward(d))
			if g.Pc > 1 {
				// At Pc = 1 the loss is already global; reducing it
				// would round it to loss·B/B.
				loss = GlobalLoss(e.row, loss, bShard.Len(), cfg.BatchSize)
			}
			losses = append(losses, loss)
		}
		ws := make([]*tensor.Matrix, len(e.shards))
		for k, s := range e.shards {
			ws[k] = GatherMatrixRows(e.over[k], s, s.Rows*e.over[k].Size())
		}
		return ws, losses
	}), nil
}

// layout checks that every layer of spec can run its assigned strategy on
// column groups of pr ranks and reports whether the network input and
// each layer's output are split into row slabs. A Domain conv runs on
// slabs and every other weighted layer on full samples; the input is
// split when the first weighted layer is Domain (an FC layer then gathers
// it back: its halo is the whole input), and an unweighted layer keeps
// its input's layout.
func layout(spec *nn.Network, pr int, assign costmodel.Assignment) (inSlab bool, slab []bool, err error) {
	ws := spec.WeightedLayers()
	slab = make([]bool, len(spec.Layers))
	inSlab = len(ws) > 0 && assign[ws[0]] == costmodel.Domain
	on, fc := inSlab, false
	for li := range spec.Layers {
		l := &spec.Layers[li]
		fed := on
		if l.HasWeights() {
			on = l.Kind == nn.Conv && assign[li] == costmodel.Domain
		}
		if err := checkLayer(l, assign[li], pr, fed, on, fc); err != nil {
			return false, nil, err
		}
		fc = fc || l.Kind == nn.FC
		slab[li] = on
	}
	if !fc {
		return false, nil, fmt.Errorf("parallel: RunFullIntegrated needs an FC classifier suffix")
	}
	return inSlab, slab, nil
}

// checkLayer checks one layer of layout: fed and slab say whether its
// input and output are row slabs, afterFC whether an FC layer precedes it.
func checkLayer(l *nn.Layer, s costmodel.Strategy, pr int, fed, slab, afterFC bool) error {
	switch {
	case afterFC && l.Kind != nn.FC && l.Kind != nn.Dropout:
		return fmt.Errorf("parallel: %v layer %s after the first FC layer", l.Kind, l.Name)
	case l.HasWeights() && s != costmodel.Model && s != costmodel.Domain:
		return fmt.Errorf("parallel: layer %s: strategy %v does not execute here (batch parallelism is the 1×P grid)", l.Name, s)
	case fed && !slab && l.In.H%pr != 0:
		return fmt.Errorf("parallel: layer %s input height %d not divisible by pr=%d", l.Name, l.In.H, pr)
	case l.Kind == nn.Conv && slab && (l.Stride != 1 || l.KH != l.KW || l.KH%2 == 0 || l.Pad != l.KH/2):
		return fmt.Errorf("parallel: domain conv %s must be stride-1 odd-square half-padded (k=%dx%d s=%d pad=%d)",
			l.Name, l.KH, l.KW, l.Stride, l.Pad)
	case l.Kind == nn.Conv && slab && l.In.H%pr != 0:
		return fmt.Errorf("parallel: layer %s height %d not divisible by pr=%d", l.Name, l.In.H, pr)
	case l.Kind == nn.Conv && slab && l.In.H/pr < l.KH/2:
		return fmt.Errorf("parallel: layer %s slab height %d thinner than halo %d", l.Name, l.In.H/pr, l.KH/2)
	case l.Kind == nn.Conv && !slab && l.OutC%pr != 0:
		return fmt.Errorf("parallel: conv %s OutC=%d not divisible by Pr=%d", l.Name, l.OutC, pr)
	case l.Kind == nn.FC && s == costmodel.Model && l.OutN%pr != 0:
		return fmt.Errorf("parallel: fc %s OutN=%d not divisible by Pr=%d", l.Name, l.OutN, pr)
	case l.Kind == nn.Pool && slab && (l.KH != l.Stride || l.KW != l.Stride || l.Pad != 0):
		return fmt.Errorf("parallel: domain pool %s must tile exactly (k=%d stride=%d)", l.Name, l.KH, l.Stride)
	case l.Kind == nn.Pool && slab && (l.In.H%pr != 0 || (l.In.H/pr)%l.Stride != 0):
		return fmt.Errorf("parallel: pool %s slabs of %d rows not aligned to stride %d", l.Name, l.In.H/pr, l.Stride)
	}
	return nil
}

// walk is one rank's state of RunFullIntegrated: its weight shards and
// the forward caches of one step, per layer.
type walk struct {
	spec    *nn.Network
	inSlab  bool   // the batch shard is split into row slabs before layer 0
	slab    []bool // per layer: its output is split into row slabs
	lastW   int
	fcStart int // first FC layer
	row     *mpi.Comm
	col     *mpi.Comm

	slot   map[int]int
	shards []*tensor.Matrix // per weight slot: a block of rows, or all of them
	over   []*mpi.Comm      // per weight slot: the group its shards split over
	reduce []*mpi.Comm      // per weight slot: the group ∆W is all-reduced over

	in4, pre4 []*tensor.Tensor4 // conv/pool/LRN inputs (halo-extended on slabs), conv pre-activations
	haloT     []int             // top halo rows of a slab conv's input
	in, pre   []*tensor.Matrix  // FC inputs and pre-activations
	arg       [][]int
	denom     [][]float64
}

func newWalk(cfg Config, assign costmodel.Assignment, inSlab bool, slab []bool, proc *mpi.Proc, row, col *mpi.Comm) *walk {
	spec := cfg.Spec
	n := len(spec.Layers)
	e := &walk{
		spec: spec, inSlab: inSlab, slab: slab, row: row, col: col, slot: map[int]int{},
		in4: make([]*tensor.Tensor4, n), pre4: make([]*tensor.Tensor4, n), haloT: make([]int, n),
		in: make([]*tensor.Matrix, n), pre: make([]*tensor.Matrix, n),
		arg: make([][]int, n), denom: make([][]float64, n),
	}
	self, world := proc.CommFrom([]int{proc.Rank()}), proc.WorldComm()
	ref := nn.NewModel(spec, cfg.Seed) // deterministic full init, then shard
	e.fcStart = n
	for _, li := range spec.WeightedLayers() {
		over, reduce := col, row
		if assign[li] == costmodel.Domain {
			over = self
			if slab[li] {
				reduce = world
			}
		}
		e.slot[li] = len(e.shards)
		e.shards = append(e.shards, RowShard(ref.Weights[ref.WeightSlot(li)], over.Size(), over.Rank()))
		e.over = append(e.over, over)
		e.reduce = append(e.reduce, reduce)
		e.lastW = li
		if spec.Layers[li].Kind == nn.FC && li < e.fcStart {
			e.fcStart = li
		}
	}
	return e
}

// fed reports whether layer li's input is split into row slabs.
func (e *walk) fed(li int) bool {
	if li == 0 {
		return e.inSlab
	}
	return e.slab[li-1]
}

// relayout moves t between the two activation layouts of the column
// group: toSlab keeps this rank's block of rows, otherwise the slabs are
// all-gathered into full samples.
func (e *walk) relayout(t *tensor.Tensor4, toSlab bool) *tensor.Tensor4 {
	if toSlab {
		rows := grid.BlockShard(t.H, e.col.Size(), e.col.Rank())
		return t.SliceRowsH(rows.Lo, rows.Hi)
	}
	return gatherRowsH(e.col, t, t.H*e.col.Size())
}

// forward maps this rank's batch shard (full samples) to its logits.
func (e *walk) forward(x *tensor.Tensor4) *tensor.Matrix {
	cur4 := x
	if e.inSlab {
		cur4 = e.relayout(x, true)
	}
	var cur *tensor.Matrix
	for li := range e.spec.Layers {
		l := &e.spec.Layers[li]
		if e.slab[li] != e.fed(li) {
			cur4 = e.relayout(cur4, e.slab[li])
		}
		switch l.Kind {
		case nn.Conv:
			k := e.slot[li]
			in, haloT := cur4, 0
			if e.slab[li] {
				in, haloT = exchangeHalo(e.col, cur4, l.KH/2)
			}
			y := nn.ConvForward(in, e.shards[k], l.KH, l.KW, l.Stride, l.Pad)
			if e.slab[li] {
				y = y.SliceRowsH(haloT, haloT+cur4.H)
			} else {
				y = gatherChannels(e.over[k], y, l.OutC) // the Eq. 3 all-gather
			}
			e.in4[li], e.haloT[li], e.pre4[li] = in, haloT, y
			cur4 = y
			if li != e.lastW {
				cur4 = nn.ReLUForward4(y)
			}
		case nn.Pool:
			e.in4[li] = cur4
			cur4, e.arg[li] = nn.MaxPoolForward(cur4, l.KH, l.KW, l.Stride)
		case nn.LRN:
			e.in4[li] = cur4
			cur4, e.denom[li] = nn.LRNForward(cur4)
		case nn.FC:
			if cur == nil {
				cur = cur4.AsMatrix()
			}
			k := e.slot[li]
			e.in[li] = cur
			e.pre[li] = GatherMatrixRows(e.over[k], tensor.MatMul(e.shards[k], cur), l.OutN) // Eq. 8 all-gather over Pr
			cur = e.pre[li]
			if li != e.lastW {
				cur = nn.ReLUForward(cur)
			}
		}
	}
	return cur
}

// backward consumes the globally-scaled logits gradient and returns the
// weight gradients in slot order, each all-reduced over its group. No ∆X
// is formed past the first layer (Eq. 3's i ≥ 2 bound).
func (e *walk) backward(d *tensor.Matrix) []*tensor.Matrix {
	grads := make([]*tensor.Matrix, len(e.shards))
	var d4 *tensor.Tensor4
	for li := len(e.spec.Layers) - 1; li >= 0; li-- {
		l := &e.spec.Layers[li]
		switch l.Kind {
		case nn.FC:
			if li != e.lastW {
				d = nn.ReLUBackward(d, e.pre[li])
			}
			k := e.slot[li]
			dy := RowShard(d, e.over[k].Size(), e.over[k].Rank())
			grads[k] = AllReduceMat(e.reduce[k], tensor.MatMulNT(dy, e.in[li]))
			if li == 0 {
				break
			}
			d = AllReduceMat(e.over[k], tensor.MatMulTN(e.shards[k], dy)) // Eq. 8 ∆X all-reduce over Pr
			if li == e.fcStart {
				d4 = tensor.FromMatrix(d, l.In.C, l.In.H, l.In.W)
			}
		case nn.Pool:
			d4 = nn.MaxPoolBackward(d4, e.arg[li], e.in4[li])
		case nn.LRN:
			d4 = nn.LRNBackward(d4, e.in4[li], e.denom[li])
		case nn.Conv:
			if li != e.lastW {
				d4 = nn.ReLUBackward4(d4, e.pre4[li])
			}
			k, x := e.slot[li], e.in4[li]
			var dy *tensor.Tensor4
			if e.slab[li] {
				// Place the slab's ∆ in the halo-extended frame; the halo
				// output rows belong to the neighbours.
				dy = tensor.NewTensor4(x.N, l.OutC, x.H, x.W)
				dy.SetRowsH(e.haloT[li], d4)
			} else {
				dy = channelShard(d4, e.over[k].Size(), e.over[k].Rank())
			}
			if li == 0 {
				grads[k] = AllReduceMat(e.reduce[k], nn.ConvGradWeights(x, dy, l.KH, l.KW, l.Stride, l.Pad))
				break
			}
			dx, dw := nn.ConvBackward(x, e.shards[k], dy, l.KH, l.KW, l.Stride, l.Pad)
			grads[k] = AllReduceMat(e.reduce[k], dw)
			if e.slab[li] {
				d4 = foldHaloGrad(e.col, dx, e.haloT[li], d4.H)
			} else {
				d4 = allReduceT4(e.over[k], dx) // the Eq. 3 ∆X all-reduce
			}
		}
		if li > 0 && e.slab[li] != e.fed(li) {
			d4 = e.relayout(d4, e.fed(li))
		}
	}
	return grads
}
