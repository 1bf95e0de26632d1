package parallel

import (
	"fmt"

	"dnnparallel/internal/data"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// RunModel trains with pure 1-D model parallelism (Fig. 1): every rank
// holds 1/P of each weight matrix (a block of convolution filters / FC
// output rows) and the full minibatch. Each layer's forward pass computes
// a local activation slab and all-gathers it (the first Eq. 3 sum); each
// backward pass all-reduces the partial ∆X (the second Eq. 3 sum). Weight
// gradients are local — no gradient all-reduce at all. The FC suffix is
// fc15D on a P × 1 grid; the spatial prefix is modelEngine.
//
// Requires an FC suffix, and every conv OutC and FC OutN to be divisible
// by P so the all-gathered slabs are equal-sized.
func RunModel(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if spatialPrefixEnd(cfg.Spec) == len(cfg.Spec.Layers) {
		return Result{}, fmt.Errorf("parallel: RunModel needs an FC classifier suffix")
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
	return RunRanks(w, func(proc *mpi.Proc) ([]*tensor.Matrix, []float64) {
		world := proc.WorldComm()
		ref := nn.NewModel(cfg.Spec, cfg.Seed) // deterministic full init, then shard
		front := newModelEngine(cfg.Spec, ref, world)
		// The FC suffix is the 1.5D algorithm on a P × 1 grid: weights
		// sharded over all P ranks, the whole batch on every rank.
		fc := newFC15D(cfg.Spec, ref, proc.CommFrom([]int{proc.Rank()}), world)
		shards := append(append([]*tensor.Matrix{}, front.shards...), fc.shards...)
		opt := cfg.optimizer()
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			loss, d := nn.SoftmaxCrossEntropy(fc.Forward(front.forward(x)), labels)
			fcGrads, dIn := fc.Backward(d)
			opt.Step(shards, append(front.backward(dIn), fcGrads...))
			losses = append(losses, loss)
		}
		return append(front.assemble(), fc.Assemble()...), losses
	}), nil
}

// modelEngine is the per-rank state of the pure model-parallel spatial
// prefix (conv, pool, LRN): a block of every conv layer's filters, full
// replicated activations.
type modelEngine struct {
	spec   *nn.Network
	world  *mpi.Comm
	stop   int              // first FC layer (end of the prefix)
	shards []*tensor.Matrix // filter shard per conv layer
	slot   map[int]int

	// per-layer forward caches (full, replicated tensors)
	t4In  []*tensor.Tensor4
	t4Pre []*tensor.Tensor4
	arg   [][]int
	denom [][]float64
}

func newModelEngine(spec *nn.Network, ref *nn.Model, world *mpi.Comm) *modelEngine {
	n := len(spec.Layers)
	e := &modelEngine{
		spec: spec, world: world, stop: spatialPrefixEnd(spec), slot: map[int]int{},
		t4In: make([]*tensor.Tensor4, n), t4Pre: make([]*tensor.Tensor4, n),
		arg: make([][]int, n), denom: make([][]float64, n),
	}
	for _, li := range spec.WeightedLayers() {
		if li >= e.stop {
			break
		}
		e.slot[li] = len(e.shards)
		e.shards = append(e.shards, RowShard(ref.Weights[ref.WeightSlot(li)], world.Size(), world.Rank()))
	}
	return e
}

// forward runs the prefix and hands its output to the FC suffix as a
// matrix (one sample per column).
func (e *modelEngine) forward(x *tensor.Tensor4) *tensor.Matrix {
	cur4 := x
	for li := 0; li < e.stop; li++ {
		l := &e.spec.Layers[li]
		switch l.Kind {
		case nn.Conv:
			e.t4In[li] = cur4
			local := nn.ConvForward(cur4, e.shards[e.slot[li]], l.KH, l.KW, l.Stride, l.Pad)
			pre := gatherChannels(e.world, local, l.OutC) // the Eq. 3 all-gather
			e.t4Pre[li] = pre
			cur4 = nn.ReLUForward4(pre)
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
		}
	}
	return cur4.AsMatrix()
}

// backward takes the suffix's ∆X (nil when there is no prefix) and
// returns the prefix's weight gradients in slot order.
func (e *modelEngine) backward(dIn *tensor.Matrix) []*tensor.Matrix {
	grads := make([]*tensor.Matrix, len(e.shards))
	if e.stop == 0 {
		return grads
	}
	sh := e.spec.Layers[e.stop-1].Out
	dcur4 := tensor.FromMatrix(dIn, sh.C, sh.H, sh.W)
	p, rank := e.world.Size(), e.world.Rank()
	for li := e.stop - 1; li >= 0; li-- {
		l := &e.spec.Layers[li]
		switch l.Kind {
		case nn.LRN:
			dcur4 = nn.LRNBackward(dcur4, e.t4In[li], e.denom[li])
		case nn.Pool:
			dcur4 = nn.MaxPoolBackward(dcur4, e.arg[li], e.t4In[li])
		case nn.Conv:
			dcur4 = nn.ReLUBackward4(dcur4, e.t4Pre[li])
			dyShard := channelShard(dcur4, p, rank)
			grads[e.slot[li]] = nn.ConvGradWeights(e.t4In[li], dyShard, l.KH, l.KW, l.Stride, l.Pad)
			if li == 0 {
				continue
			}
			x := e.t4In[li]
			dymat := nn.Tensor4ToConvMat(dyShard)
			dcols := tensor.MatMulTN(e.shards[e.slot[li]], dymat)
			partial := tensor.Col2Im(dcols, x.N, x.C, x.H, x.W, l.KH, l.KW, l.Stride, l.Pad)
			dcur4 = allReduceT4(e.world, partial) // the Eq. 3 ∆X all-reduce
		}
	}
	return grads
}

// assemble all-gathers the filter shards back into full matrices.
func (e *modelEngine) assemble() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(e.shards))
	for i, s := range e.shards {
		out[i] = GatherMatrixRows(e.world, s, s.Rows*e.world.Size())
	}
	return out
}
