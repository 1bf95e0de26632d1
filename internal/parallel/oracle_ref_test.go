package parallel

// Reference copies of the engines that were folded into RunFullIntegrated
// and the fc15D-backed refRunModel, kept verbatim (identifiers prefixed with
// ref, helpers under their exported names) as oracles: the surviving
// engines must reproduce their whole Result — weights, losses and per-rank
// mpi.Stats — bit for bit.

import (
	"fmt"
	"sync"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// refCollector gathers rank-0 outputs from inside World.Run bodies.
type refCollector struct {
	mu      sync.Mutex
	weights []*tensor.Matrix
	losses  []float64
	err     error
}

func (c *refCollector) report(weights []*tensor.Matrix, losses []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.weights = weights
	c.losses = losses
}

// refRunIntegrated15D trains a fully-connected network with the 1.5D
// integrated model+batch algorithm on grid g (Fig. 5 / Eq. 8). With
// g = 1×P it degenerates to pure batch parallelism and with g = P×1 to
// pure model parallelism — the spectrum the paper emphasizes.
func refRunIntegrated15D(w *mpi.World, cfg Config, ds *data.Dataset, g grid.Grid) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if g.P() != w.Size() {
		return Result{}, fmt.Errorf("parallel: grid %v needs %d ranks, world has %d", g, g.P(), w.Size())
	}
	if cfg.BatchSize%g.Pc != 0 {
		return Result{}, fmt.Errorf("parallel: batch %d not divisible by Pc=%d", cfg.BatchSize, g.Pc)
	}
	if spatialPrefixEnd(cfg.Spec) != 0 {
		return Result{}, fmt.Errorf("parallel: refRunIntegrated15D requires a fully-connected network; use RunFullIntegrated for conv fronts")
	}
	for _, li := range cfg.Spec.WeightedLayers() {
		if l := &cfg.Spec.Layers[li]; l.OutN%g.Pr != 0 {
			return Result{}, fmt.Errorf("parallel: fc %s OutN=%d not divisible by Pr=%d", l.Name, l.OutN, g.Pr)
		}
	}
	col := &refCollector{}
	stats := w.Run(func(proc *mpi.Proc) {
		r, c := g.Coords(proc.Rank())
		rowComm := proc.CommFrom(g.RowGroup(r))
		colComm := proc.CommFrom(g.ColGroup(c))
		ref := nn.NewModel(cfg.Spec, cfg.Seed)
		eng := newFC15D(cfg.Spec, ref, rowComm, colComm)
		opt := cfg.optimizer()
		bShard := grid.BlockShard(cfg.BatchSize, g.Pc, c)
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			lx := x.SliceSamples(bShard.Lo, bShard.Hi).AsMatrix()
			ll := labels[bShard.Lo:bShard.Hi]
			logits := eng.Forward(lx)
			loss, d := nn.SoftmaxCrossEntropy(logits, ll)
			// Rescale the 1/localB mean gradient to the global 1/B mean.
			d.ScaleInPlace(float64(bShard.Len()) / float64(cfg.BatchSize))
			grads, _ := eng.Backward(d)
			eng.Apply(opt, grads)
			losses = append(losses, GlobalLoss(rowComm, loss, bShard.Len(), cfg.BatchSize))
		}
		ws := eng.Assemble()
		if proc.Rank() == 0 {
			col.report(ws, losses)
		}
	})
	if col.err != nil {
		return Result{}, col.err
	}
	return Result{Weights: col.weights, Losses: col.losses, Stats: stats}, nil
}

// refRunModel trains with pure 1-D model parallelism (Fig. 1): every rank
// holds 1/P of each weight matrix (a block of convolution filters / FC
// output rows) and the full minibatch. Each layer's forward pass computes
// a local activation slab and all-gathers it (the first Eq. 3 sum); each
// backward pass all-reduces the partial ∆X (the second Eq. 3 sum). Weight
// gradients are local — no gradient all-reduce at all.
//
// Requires every conv OutC and FC OutN to be divisible by P so the
// all-gathered slabs are equal-sized.
func refRunModel(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	p := w.Size()
	for _, li := range cfg.Spec.WeightedLayers() {
		l := &cfg.Spec.Layers[li]
		if l.Kind == nn.Conv && l.OutC%p != 0 {
			return Result{}, fmt.Errorf("parallel: conv %s OutC=%d not divisible by P=%d", l.Name, l.OutC, p)
		}
		if l.Kind == nn.FC && l.OutN%p != 0 {
			return Result{}, fmt.Errorf("parallel: fc %s OutN=%d not divisible by P=%d", l.Name, l.OutN, p)
		}
	}
	col := &refCollector{}
	stats := w.Run(func(proc *mpi.Proc) {
		world := proc.WorldComm()
		eng := newRefModelEngine(cfg, proc.Rank(), p)
		opt := cfg.optimizer()
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			losses = append(losses, eng.step(world, opt, x, labels))
		}
		if proc.Rank() == 0 {
			col.report(eng.assemble(world), losses)
		} else {
			eng.assemble(world) // all ranks participate in the gathers
		}
	})
	if col.err != nil {
		return Result{}, col.err
	}
	return Result{Weights: col.weights, Losses: col.losses, Stats: stats}, nil
}

// refModelEngine is the per-rank state of the pure model-parallel trainer.
type refModelEngine struct {
	spec   *nn.Network
	rank   int
	p      int
	lastW  int
	shards []*tensor.Matrix // row/filter shard per weighted layer
	slot   map[int]int

	// per-layer forward caches (full, replicated tensors)
	t4In   []*tensor.Tensor4
	t4Pre  []*tensor.Tensor4
	matIn  []*tensor.Matrix
	matPre []*tensor.Matrix
	arg    [][]int
	denom  [][]float64
}

func newRefModelEngine(cfg Config, rank, p int) *refModelEngine {
	ref := nn.NewModel(cfg.Spec, cfg.Seed) // deterministic full init, then shard
	e := &refModelEngine{spec: cfg.Spec, rank: rank, p: p, lastW: -1, slot: map[int]int{}}
	for _, li := range cfg.Spec.WeightedLayers() {
		full := ref.Weights[ref.WeightSlot(li)]
		e.slot[li] = len(e.shards)
		e.shards = append(e.shards, RowShard(full, p, rank))
		e.lastW = li
	}
	n := len(cfg.Spec.Layers)
	e.t4In = make([]*tensor.Tensor4, n)
	e.t4Pre = make([]*tensor.Tensor4, n)
	e.matIn = make([]*tensor.Matrix, n)
	e.matPre = make([]*tensor.Matrix, n)
	e.arg = make([][]int, n)
	e.denom = make([][]float64, n)
	return e
}

// step runs one synchronous training iteration and returns the batch loss.
func (e *refModelEngine) step(world *mpi.Comm, opt nn.Optimizer, x *tensor.Tensor4, labels []int) float64 {
	logits := e.forward(world, x)
	loss, d := nn.SoftmaxCrossEntropy(logits, labels)
	grads := e.backward(world, d)
	opt.Step(e.shards, grads)
	return loss
}

func (e *refModelEngine) forward(world *mpi.Comm, x *tensor.Tensor4) *tensor.Matrix {
	cur4 := x
	var cur *tensor.Matrix
	for li := range e.spec.Layers {
		l := &e.spec.Layers[li]
		switch l.Kind {
		case nn.Conv:
			e.t4In[li] = cur4
			local := nn.ConvForward(cur4, e.shards[e.slot[li]], l.KH, l.KW, l.Stride, l.Pad)
			pre := gatherChannels(world, local, l.OutC) // the Eq. 3 all-gather
			e.t4Pre[li] = pre
			if li != e.lastW {
				cur4 = nn.ReLUForward4(pre)
			} else {
				cur4 = pre
			}
		case nn.Pool:
			e.t4In[li] = cur4
			y, arg := nn.MaxPoolForward(cur4, l.KH, l.KW, l.Stride)
			e.arg[li] = arg
			cur4 = y
		case nn.LRN:
			e.t4In[li] = cur4
			y, denom := nn.LRNForward(cur4)
			e.denom[li] = denom
			cur4 = y
		case nn.Dropout:
			// identity
		case nn.FC:
			if cur == nil {
				cur = cur4.AsMatrix()
				cur4 = nil
			}
			e.matIn[li] = cur
			local := nn.DenseForward(e.shards[e.slot[li]], cur)
			pre := GatherMatrixRows(world, local, l.OutN) // the Eq. 3 all-gather
			e.matPre[li] = pre
			if li != e.lastW {
				cur = nn.ReLUForward(pre)
			} else {
				cur = pre
			}
		}
	}
	return cur
}

func (e *refModelEngine) backward(world *mpi.Comm, dlogits *tensor.Matrix) []*tensor.Matrix {
	grads := make([]*tensor.Matrix, len(e.shards))
	dcur := dlogits
	var dcur4 *tensor.Tensor4
	layers := e.spec.Layers
	for li := len(layers) - 1; li >= 0; li-- {
		l := &layers[li]
		switch l.Kind {
		case nn.FC:
			if li != e.lastW {
				dcur = nn.ReLUBackward(dcur, e.matPre[li])
			}
			dyShard := RowShard(dcur, e.p, e.rank)
			grads[e.slot[li]] = nn.DenseGradWeights(dyShard, e.matIn[li])
			if li == 0 {
				continue
			}
			partial := nn.DenseBackwardInput(e.shards[e.slot[li]], dyShard)
			dcur = AllReduceMat(world, partial) // the Eq. 3 ∆X all-reduce
			if prev := refPrevSpatialShape(e.spec, li); prev != nil {
				dcur4 = tensor.FromMatrix(dcur, prev.C, prev.H, prev.W)
				dcur = nil
			}
		case nn.Dropout:
			// identity
		case nn.LRN:
			dcur4 = nn.LRNBackward(dcur4, e.t4In[li], e.denom[li])
		case nn.Pool:
			dcur4 = nn.MaxPoolBackward(dcur4, e.arg[li], e.t4In[li])
		case nn.Conv:
			if li != e.lastW {
				dcur4 = nn.ReLUBackward4(dcur4, e.t4Pre[li])
			}
			dyShard := channelShard(dcur4, e.p, e.rank)
			grads[e.slot[li]] = nn.ConvGradWeights(e.t4In[li], dyShard, l.KH, l.KW, l.Stride, l.Pad)
			if li == 0 {
				continue
			}
			x := e.t4In[li]
			dymat := nn.Tensor4ToConvMat(dyShard)
			dcols := tensor.MatMulTN(e.shards[e.slot[li]], dymat)
			partial := tensor.Col2Im(dcols, x.N, x.C, x.H, x.W, l.KH, l.KW, l.Stride, l.Pad)
			dcur4 = allReduceT4(world, partial) // the Eq. 3 ∆X all-reduce
		}
	}
	return grads
}

// assemble all-gathers the weight shards back into full matrices.
func (e *refModelEngine) assemble(world *mpi.Comm) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(e.shards))
	for i, s := range e.shards {
		out[i] = GatherMatrixRows(world, s, s.Rows*e.p)
	}
	return out
}

// refPrevSpatialShape mirrors nn.Model's flatten bookkeeping.
func refPrevSpatialShape(spec *nn.Network, li int) *nn.Shape {
	for j := li - 1; j >= 0; j-- {
		switch spec.Layers[j].Kind {
		case nn.Conv, nn.Pool, nn.LRN:
			s := spec.Layers[j].Out
			return &s
		case nn.FC:
			return nil
		}
	}
	if spec.Input.H > 1 || spec.Input.W > 1 {
		s := spec.Input
		return &s
	}
	return nil
}
