package parallel

// Reference copies of the engines that RunFullIntegrated's layer walk
// replaced, kept verbatim (identifiers prefixed with ref, helpers under
// their surviving names) as oracles: the FC-only 1.5D engine, the
// all-layer model engine, and the per-strategy engines of before the walk
// — RunModel (a filter-sharded conv prefix feeding fc15D on P × 1),
// RunDomain, and the conv RunFullIntegrated with its domain stack. The
// walk must reproduce their whole Result — weights, losses and per-rank
// mpi.Stats — bit for bit. The exception is RunBatch: the walk on 1 × P
// splits its one flattened gradient all-reduce per step into one per
// weighted layer, and TestBatchOracle states what that changes.

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
	if refSpatialPrefixEnd(cfg.Spec) != 0 {
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
		eng := newRefFC15D(cfg.Spec, ref, rowComm, colComm)
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
			local := tensor.MatMul(e.shards[e.slot[li]], cur)
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
			grads[e.slot[li]] = tensor.MatMulNT(dyShard, e.matIn[li])
			if li == 0 {
				continue
			}
			partial := tensor.MatMulTN(e.shards[e.slot[li]], dyShard)
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

// --- Verbatim copies of the per-strategy engines the assignment walk replaced ---

// refRunModel15D trains with pure 1-D model parallelism (Fig. 1): every rank
// holds 1/P of each weight matrix (a block of convolution filters / FC
// output rows) and the full minibatch. Each layer's forward pass computes
// a local activation slab and all-gathers it (the first Eq. 3 sum); each
// backward pass all-reduces the partial ∆X (the second Eq. 3 sum). Weight
// gradients are local — no gradient all-reduce at all. The FC suffix is
// refFC15D on a P × 1 grid; the spatial prefix is refModelPrefix.
//
// Requires an FC suffix, and every conv OutC and FC OutN to be divisible
// by P so the all-gathered slabs are equal-sized.
func refRunModel15D(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if refSpatialPrefixEnd(cfg.Spec) == len(cfg.Spec.Layers) {
		return Result{}, fmt.Errorf("parallel: refRunModel15D needs an FC classifier suffix")
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
		front := newRefModelPrefix(cfg.Spec, ref, world)
		// The FC suffix is the 1.5D algorithm on a P × 1 grid: weights
		// sharded over all P ranks, the whole batch on every rank.
		fc := newRefFC15D(cfg.Spec, ref, proc.CommFrom([]int{proc.Rank()}), world)
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

// refModelPrefix is the per-rank state of the pure model-parallel spatial
// prefix (conv, pool, LRN): a block of every conv layer's filters, full
// replicated activations.
type refModelPrefix struct {
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

func newRefModelPrefix(spec *nn.Network, ref *nn.Model, world *mpi.Comm) *refModelPrefix {
	n := len(spec.Layers)
	e := &refModelPrefix{
		spec: spec, world: world, stop: refSpatialPrefixEnd(spec), slot: map[int]int{},
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
func (e *refModelPrefix) forward(x *tensor.Tensor4) *tensor.Matrix {
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
func (e *refModelPrefix) backward(dIn *tensor.Matrix) []*tensor.Matrix {
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
func (e *refModelPrefix) assemble() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(e.shards))
	for i, s := range e.shards {
		out[i] = GatherMatrixRows(e.world, s, s.Rows*e.world.Size())
	}
	return out
}

// refRunDomain trains with pure domain parallelism (Fig. 3 / Eq. 7): every
// rank holds all weights and a 1/P horizontal slab of every sample.
// Convolutions exchange halo rows; conv weight gradients are all-reduced
// over all P ranks. The fully-connected suffix is computed redundantly on
// every rank after a row all-gather — the paper's observation that domain
// parallelism "is not applicable to fully connected layers" made concrete:
// the gather is exactly the "halo region = all of the input activations".
func refRunDomain(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	p := w.Size()
	if err := refValidateDomain(cfg.Spec, p); err != nil {
		return Result{}, err
	}
	if refSpatialPrefixEnd(cfg.Spec) == len(cfg.Spec.Layers) {
		return Result{}, fmt.Errorf("parallel: refRunDomain needs an FC classifier suffix")
	}
	return RunRanks(w, func(proc *mpi.Proc) ([]*tensor.Matrix, []float64) {
		world := proc.WorldComm()
		ref := nn.NewModel(cfg.Spec, cfg.Seed)
		stack := newRefDomainStack(cfg.Spec, ref, world, world)
		// The FC suffix runs replicated: a degenerate 1.5D grid of one
		// process (self-communicators make every collective a no-op).
		self := proc.CommFrom([]int{proc.Rank()})
		fc := newRefFC15D(cfg.Spec, ref, self, self)
		stackOpt, fcOpt := cfg.optimizer(), cfg.optimizer()
		lastW := refLastWeighted(cfg.Spec)
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			rows := grid.BlockShard(x.H, p, proc.Rank())
			slab := x.SliceRowsH(rows.Lo, rows.Hi)
			out := stack.Forward(slab, lastW)
			// Gather the slabs: every rank assembles the full activation
			// block (the FC "halo is everything" cost).
			full := gatherRowsH(world, out, stack.OutShape().H)
			logits := fc.Forward(full.AsMatrix())
			loss, d := nn.SoftmaxCrossEntropy(logits, labels)
			fcGrads, dIn := fc.Backward(d)
			fc.Apply(fcOpt, fcGrads)
			if dIn != nil {
				sh := stack.OutShape()
				d4 := tensor.FromMatrix(dIn, sh.C, sh.H, sh.W)
				outRows := grid.BlockShard(sh.H, p, proc.Rank())
				convGrads := stack.Backward(d4.SliceRowsH(outRows.Lo, outRows.Hi), lastW)
				stack.Apply(stackOpt, convGrads)
			}
			losses = append(losses, loss)
		}
		return append(append([]*tensor.Matrix{}, stack.weights...), fc.Assemble()...), losses
	}), nil
}

// refLastWeighted returns the index of the final weighted layer.
func refLastWeighted(spec *nn.Network) int {
	w := spec.WeightedLayers()
	return w[len(w)-1]
}

// refDomainStack executes the spatial front of a network (conv/pool/LRN
// layers up to the first FC) with each rank of comm owning a horizontal
// slab of every sample — the Fig. 3 decomposition. Convolutions exchange
// ⌊k/2⌋ halo rows with vertical neighbors via non-blocking sends (the
// paper's overlappable pairwise exchange); pooling is halo-free because
// shard boundaries are required to align with pooling windows; 1×1
// convolutions communicate nothing (the Eq. 7 observation). Convolution
// weights are fully replicated; their gradients are all-reduced over
// gradComm (all P processes, per Eq. 7/Eq. 9).
type refDomainStack struct {
	spec     *nn.Network
	comm     *mpi.Comm // spatial group (size Pr); rank order = slab order
	gradComm *mpi.Comm // weight-gradient all-reduce group (all P)
	stopLi   int       // first non-spatial layer index (end of the stack)

	weights []*tensor.Matrix // replicated conv filters
	slot    map[int]int

	// forward caches (local slabs)
	xExt  []*tensor.Tensor4 // halo-extended conv inputs
	haloT []int             // rows of top halo present in xExt
	pre   []*tensor.Tensor4 // local pre-activation conv outputs
	t4In  []*tensor.Tensor4 // pool/LRN local inputs
	arg   [][]int
	denom [][]float64
}

// Halo exchange tags (engine-level tags must be ≥ 0).
const (
	refTagHaloDown = 100 + iota // data flowing to the next (lower) slab
	refTagHaloUp                // data flowing to the previous (upper) slab
	refTagGradDown
	refTagGradUp
)

// refSpatialPrefixEnd returns the index of the first FC layer (the end of the
// spatial stack); len(Layers) if the network is all-spatial.
func refSpatialPrefixEnd(spec *nn.Network) int {
	for i := range spec.Layers {
		if spec.Layers[i].Kind == nn.FC {
			return i
		}
	}
	return len(spec.Layers)
}

// refValidateDomain checks that the spatial front of spec can be slab-split
// pr ways: conv layers must be stride-1, square, odd, half-padded (shape
// preserving); pool layers must tile exactly (k = stride); every spatial
// layer's height must split into pr equal stride-aligned slabs no thinner
// than the halo.
func refValidateDomain(spec *nn.Network, pr int) error {
	if pr < 1 {
		return fmt.Errorf("parallel: domain split pr=%d", pr)
	}
	stop := refSpatialPrefixEnd(spec)
	h := spec.Input.H
	for li := 0; li < stop; li++ {
		l := &spec.Layers[li]
		switch l.Kind {
		case nn.Conv:
			if l.Stride != 1 || l.KH != l.KW || l.KH%2 == 0 || l.Pad != l.KH/2 {
				return fmt.Errorf("parallel: domain conv %s must be stride-1 odd-square half-padded (k=%dx%d s=%d pad=%d)",
					l.Name, l.KH, l.KW, l.Stride, l.Pad)
			}
			if h%pr != 0 {
				return fmt.Errorf("parallel: layer %s height %d not divisible by pr=%d", l.Name, h, pr)
			}
			if h/pr < l.KH/2 {
				return fmt.Errorf("parallel: layer %s slab height %d thinner than halo %d", l.Name, h/pr, l.KH/2)
			}
		case nn.Pool:
			if l.KH != l.Stride || l.KW != l.Stride || l.Pad != 0 {
				return fmt.Errorf("parallel: domain pool %s must tile exactly (k=%d stride=%d)", l.Name, l.KH, l.Stride)
			}
			if h%pr != 0 || (h/pr)%l.Stride != 0 {
				return fmt.Errorf("parallel: pool %s slabs of %d rows not aligned to stride %d", l.Name, h/pr, l.Stride)
			}
			h /= l.Stride
		case nn.LRN, nn.Dropout:
			// spatially local
		}
	}
	if h%pr != 0 {
		return fmt.Errorf("parallel: final spatial height %d not divisible by pr=%d", h, pr)
	}
	return nil
}

func newRefDomainStack(spec *nn.Network, ref *nn.Model, comm, gradComm *mpi.Comm) *refDomainStack {
	d := &refDomainStack{
		spec: spec, comm: comm, gradComm: gradComm,
		stopLi: refSpatialPrefixEnd(spec),
		slot:   map[int]int{},
	}
	for _, li := range spec.WeightedLayers() {
		if li >= d.stopLi {
			break
		}
		d.slot[li] = len(d.weights)
		d.weights = append(d.weights, ref.Weights[ref.WeightSlot(li)].Clone())
	}
	n := d.stopLi
	d.xExt = make([]*tensor.Tensor4, n)
	d.haloT = make([]int, n)
	d.pre = make([]*tensor.Tensor4, n)
	d.t4In = make([]*tensor.Tensor4, n)
	d.arg = make([][]int, n)
	d.denom = make([][]float64, n)
	return d
}

// exchangeHalo swaps h boundary rows with vertical neighbors and returns
// the halo-extended tensor plus the number of top halo rows attached.
func (d *refDomainStack) exchangeHalo(x *tensor.Tensor4, h int) (*tensor.Tensor4, int) {
	r, p := d.comm.Rank(), d.comm.Size()
	if h == 0 || p == 1 {
		return x, 0
	}
	// Non-blocking sends of our boundary slabs…
	if r > 0 {
		d.comm.ISend(r-1, refTagHaloUp, x.SliceRowsH(0, h).Data)
	}
	if r < p-1 {
		d.comm.ISend(r+1, refTagHaloDown, x.SliceRowsH(x.H-h, x.H).Data)
	}
	// …then receive the neighbours' boundaries.
	var top, bot *tensor.Tensor4
	if r > 0 {
		top = &tensor.Tensor4{N: x.N, C: x.C, H: h, W: x.W, Data: d.comm.Recv(r-1, refTagHaloDown)}
	}
	if r < p-1 {
		bot = &tensor.Tensor4{N: x.N, C: x.C, H: h, W: x.W, Data: d.comm.Recv(r+1, refTagHaloUp)}
	}
	extH := x.H
	haloT := 0
	if top != nil {
		extH += h
		haloT = h
	}
	if bot != nil {
		extH += h
	}
	ext := tensor.NewTensor4(x.N, x.C, extH, x.W)
	if top != nil {
		ext.SetRowsH(0, top)
	}
	ext.SetRowsH(haloT, x)
	if bot != nil {
		ext.SetRowsH(haloT+x.H, bot)
	}
	return ext, haloT
}

// Forward runs the spatial stack on this rank's slab (rows in slab order
// by comm rank) and returns the local slab of the final spatial output.
// lastW is the network's final weighted layer (for the ReLU policy).
func (d *refDomainStack) Forward(x *tensor.Tensor4, lastW int) *tensor.Tensor4 {
	cur := x
	for li := 0; li < d.stopLi; li++ {
		l := &d.spec.Layers[li]
		switch l.Kind {
		case nn.Conv:
			halo := l.KH / 2
			ext, haloT := d.exchangeHalo(cur, halo)
			d.xExt[li] = ext
			d.haloT[li] = haloT
			yExt := nn.ConvForward(ext, d.weights[d.slot[li]], l.KH, l.KW, 1, l.Pad)
			pre := yExt.SliceRowsH(haloT, haloT+cur.H)
			d.pre[li] = pre
			if li != lastW {
				cur = nn.ReLUForward4(pre)
			} else {
				cur = pre
			}
		case nn.Pool:
			d.t4In[li] = cur
			y, arg := nn.MaxPoolForward(cur, l.KH, l.KW, l.Stride)
			d.arg[li] = arg
			cur = y
		case nn.LRN:
			d.t4In[li] = cur
			y, denom := nn.LRNForward(cur)
			d.denom[li] = denom
			cur = y
		case nn.Dropout:
			// identity
		}
	}
	return cur
}

// Backward propagates the local output-slab gradient back through the
// stack, all-reducing each conv layer's weight gradient over gradComm,
// and returns the per-conv-layer gradients (in slot order).
func (d *refDomainStack) Backward(dy *tensor.Tensor4, lastW int) []*tensor.Matrix {
	grads := make([]*tensor.Matrix, len(d.weights))
	cur := dy
	for li := d.stopLi - 1; li >= 0; li-- {
		l := &d.spec.Layers[li]
		switch l.Kind {
		case nn.Dropout:
			// identity
		case nn.LRN:
			cur = nn.LRNBackward(cur, d.t4In[li], d.denom[li])
		case nn.Pool:
			cur = nn.MaxPoolBackward(cur, d.arg[li], d.t4In[li])
		case nn.Conv:
			if li != lastW {
				cur = nn.ReLUBackward4(cur, d.pre[li])
			}
			ext := d.xExt[li]
			haloT := d.haloT[li]
			// Place the local output gradient at its position in the
			// extended frame; halo output rows belong to the neighbours.
			dyExt := tensor.NewTensor4(ext.N, l.OutC, ext.H, ext.W)
			dyExt.SetRowsH(haloT, cur)
			if li == 0 {
				// No ∆X past the first layer (Eq. 3's i ≥ 2 bound).
				grads[d.slot[li]] = AllReduceMat(d.gradComm, nn.ConvGradWeights(ext, dyExt, l.KH, l.KW, 1, l.Pad))
				continue
			}
			dxExt, dw := nn.ConvBackward(ext, d.weights[d.slot[li]], dyExt, l.KH, l.KW, 1, l.Pad)
			grads[d.slot[li]] = AllReduceMat(d.gradComm, dw)
			cur = d.foldHaloGrad(dxExt, haloT, cur.H)
		}
	}
	return grads
}

// foldHaloGrad extracts this rank's slab from an extended input gradient
// and exchanges the halo-row contributions with neighbours (the backward
// halo exchange of Eq. 7), accumulating what they computed for our rows.
func (d *refDomainStack) foldHaloGrad(dxExt *tensor.Tensor4, haloT, ownH int) *tensor.Tensor4 {
	r, p := d.comm.Rank(), d.comm.Size()
	own := dxExt.SliceRowsH(haloT, haloT+ownH)
	haloB := dxExt.H - haloT - ownH
	if r > 0 && haloT > 0 {
		d.comm.ISend(r-1, refTagGradUp, dxExt.SliceRowsH(0, haloT).Data)
	}
	if r < p-1 && haloB > 0 {
		d.comm.ISend(r+1, refTagGradDown, dxExt.SliceRowsH(haloT+ownH, dxExt.H).Data)
	}
	if r < p-1 && haloB > 0 {
		got := d.comm.Recv(r+1, refTagGradUp) // their top-halo grad = our bottom rows
		t := tensor.Tensor4{N: own.N, C: own.C, H: haloB, W: own.W, Data: got}
		for n := 0; n < own.N; n++ {
			for c := 0; c < own.C; c++ {
				for h := 0; h < haloB; h++ {
					for w := 0; w < own.W; w++ {
						own.Add(n, c, ownH-haloB+h, w, t.At(n, c, h, w))
					}
				}
			}
		}
	}
	if r > 0 && haloT > 0 {
		got := d.comm.Recv(r-1, refTagGradDown) // their bottom-halo grad = our top rows
		t := tensor.Tensor4{N: own.N, C: own.C, H: haloT, W: own.W, Data: got}
		for n := 0; n < own.N; n++ {
			for c := 0; c < own.C; c++ {
				for h := 0; h < haloT; h++ {
					for w := 0; w < own.W; w++ {
						own.Add(n, c, h, w, t.At(n, c, h, w))
					}
				}
			}
		}
	}
	return own
}

// Apply updates the replicated conv filters with the (already reduced,
// hence identical) gradients.
func (d *refDomainStack) Apply(opt nn.Optimizer, grads []*tensor.Matrix) {
	opt.Step(d.weights, grads)
}

// OutShape returns the spatial stack's full (unsharded) output shape.
func (d *refDomainStack) OutShape() nn.Shape {
	if d.stopLi == 0 {
		return d.spec.Input
	}
	return d.spec.Layers[d.stopLi-1].Out
}

// refRunFullIntegrated trains a conv+FC network with the paper's fully
// integrated model+batch+domain scheme (Section 2.4 / Eq. 9) on a Pr × Pc
// grid:
//
//   - the batch is split over the Pc columns;
//   - within each column group (Pr ranks), convolutional layers are
//     domain-parallel — each rank owns a horizontal slab of the column's
//     samples, with halo exchanges between vertical neighbours (L_D);
//   - conv weights are replicated everywhere and their gradients
//     all-reduced over all P = Pr·Pc ranks;
//   - fully-connected layers run the 1.5D algorithm: weights sharded over
//     Pr, activations gathered over column groups, ∆W reduced over row
//     groups (L_M).
//
// This is the configuration that extends strong scaling beyond P = B
// (Fig. 10): Pc is capped at B while Pr keeps growing. A network with no
// spatial prefix skips the domain stack: the run is then the 1.5D
// algorithm of Fig. 5 / Eq. 8, which degenerates to pure batch
// parallelism at g = 1×P and to pure model parallelism at g = P×1.
func refRunFullIntegrated(w *mpi.World, cfg Config, ds *data.Dataset, g grid.Grid) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if g.P() != w.Size() {
		return Result{}, fmt.Errorf("parallel: grid %v needs %d ranks, world has %d", g, g.P(), w.Size())
	}
	if cfg.BatchSize%g.Pc != 0 {
		return Result{}, fmt.Errorf("parallel: batch %d not divisible by Pc=%d", cfg.BatchSize, g.Pc)
	}
	fcStart := refSpatialPrefixEnd(cfg.Spec)
	if fcStart == len(cfg.Spec.Layers) {
		return Result{}, fmt.Errorf("parallel: refRunFullIntegrated needs an FC suffix")
	}
	if fcStart > 0 {
		if err := refValidateDomain(cfg.Spec, g.Pr); err != nil {
			return Result{}, err
		}
	}
	for _, li := range cfg.Spec.WeightedLayers() {
		if li < fcStart {
			continue
		}
		if l := &cfg.Spec.Layers[li]; l.OutN%g.Pr != 0 {
			return Result{}, fmt.Errorf("parallel: fc %s OutN=%d not divisible by Pr=%d", l.Name, l.OutN, g.Pr)
		}
	}
	return RunRanks(w, func(proc *mpi.Proc) ([]*tensor.Matrix, []float64) {
		r, c := g.Coords(proc.Rank())
		rowComm := proc.CommFrom(g.RowGroup(r))
		colComm := proc.CommFrom(g.ColGroup(c))
		ref := nn.NewModel(cfg.Spec, cfg.Seed)
		var stack *refDomainStack
		var stackOpt nn.Optimizer
		if fcStart > 0 {
			stack = newRefDomainStack(cfg.Spec, ref, colComm, proc.WorldComm())
			stackOpt = cfg.optimizer()
		}
		fc := newRefFC15D(cfg.Spec, ref, rowComm, colComm)
		fcOpt := cfg.optimizer()
		lastW := refLastWeighted(cfg.Spec)
		bShard := grid.BlockShard(cfg.BatchSize, g.Pc, c)
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			lx := x.SliceSamples(bShard.Lo, bShard.Hi)
			ll := labels[bShard.Lo:bShard.Hi]
			var in *tensor.Matrix
			if stack == nil {
				// No spatial prefix: the 1.5D algorithm of Fig. 5 alone.
				in = lx.AsMatrix()
			} else {
				// Domain-parallel conv front on my slab of my column's
				// batch, then a column-group gather: full activations of
				// my batch shard, replicated across the Pr ranks — exactly
				// the 1.5D layout.
				rows := grid.BlockShard(lx.H, g.Pr, r)
				out := stack.Forward(lx.SliceRowsH(rows.Lo, rows.Hi), lastW)
				in = gatherRowsH(colComm, out, stack.OutShape().H).AsMatrix()
			}
			logits := fc.Forward(in)
			loss, d := nn.SoftmaxCrossEntropy(logits, ll)
			// Rescale the 1/localB mean gradient to the global 1/B mean.
			d.ScaleInPlace(float64(bShard.Len()) / float64(cfg.BatchSize))
			fcGrads, dIn := fc.Backward(d)
			fc.Apply(fcOpt, fcGrads)
			if stack != nil {
				sh := stack.OutShape()
				d4 := tensor.FromMatrix(dIn, sh.C, sh.H, sh.W)
				outRows := grid.BlockShard(sh.H, g.Pr, r)
				convGrads := stack.Backward(d4.SliceRowsH(outRows.Lo, outRows.Hi), lastW)
				stack.Apply(stackOpt, convGrads)
			}
			losses = append(losses, GlobalLoss(rowComm, loss, bShard.Len(), cfg.BatchSize))
		}
		ws := fc.Assemble()
		if stack != nil {
			ws = append(append([]*tensor.Matrix{}, stack.weights...), ws...)
		}
		return ws, losses
	}), nil
}

// refFC15D executes the fully-connected suffix of a network with the paper's
// 1.5D algorithm (Fig. 5) on a Pr × Pc grid: each process holds 1/Pr of
// every FC weight matrix (replicated Pc times) and works on the batch
// shard of its column (replicated Pr times). Forward all-gathers the
// local activation panel over the column group (Pr ranks); backward
// all-reduces ∆X over the column group and ∆W over the row group
// (Pc ranks) — exactly the three Eq. 8 terms.
type refFC15D struct {
	spec    *nn.Network
	startLi int // first FC layer
	lastW   int
	rowComm *mpi.Comm // Pc ranks sharing my weight shard
	colComm *mpi.Comm // Pr ranks sharing my batch shard
	pr      int
	r       int

	shards []*tensor.Matrix
	slot   map[int]int
	matIn  []*tensor.Matrix
	matPre []*tensor.Matrix
}

func newRefFC15D(spec *nn.Network, ref *nn.Model, rowComm, colComm *mpi.Comm) *refFC15D {
	f := &refFC15D{
		spec: spec, startLi: refSpatialPrefixEnd(spec),
		rowComm: rowComm, colComm: colComm,
		pr: colComm.Size(), r: colComm.Rank(),
		slot:   map[int]int{},
		matIn:  make([]*tensor.Matrix, len(spec.Layers)),
		matPre: make([]*tensor.Matrix, len(spec.Layers)),
	}
	for _, li := range spec.WeightedLayers() {
		f.lastW = li
		if li < f.startLi {
			continue
		}
		full := ref.Weights[ref.WeightSlot(li)]
		f.slot[li] = len(f.shards)
		f.shards = append(f.shards, RowShard(full, f.pr, f.r))
	}
	return f
}

// Forward maps the local batch panel (d × B/Pc, full rows) to logits.
func (f *refFC15D) Forward(cur *tensor.Matrix) *tensor.Matrix {
	for li := f.startLi; li < len(f.spec.Layers); li++ {
		l := &f.spec.Layers[li]
		switch l.Kind {
		case nn.FC:
			f.matIn[li] = cur
			local := tensor.MatMul(f.shards[f.slot[li]], cur)
			pre := GatherMatrixRows(f.colComm, local, l.OutN) // Eq. 8 all-gather over Pr
			f.matPre[li] = pre
			if li != f.lastW {
				cur = nn.ReLUForward(pre)
			} else {
				cur = pre
			}
		case nn.Dropout:
			// identity
		default:
			panic(fmt.Sprintf("parallel: refFC15D met %v layer %s", l.Kind, l.Name))
		}
	}
	return cur
}

// Backward consumes the globally-scaled logits gradient, all-reduces each
// ∆W over the row group, updates nothing, and returns (per-slot grads,
// the ∆X of the first FC layer's input — nil when the FC stack starts the
// network, mirroring the serial model's Eq. 3 i ≥ 2 skip).
func (f *refFC15D) Backward(dlogits *tensor.Matrix) ([]*tensor.Matrix, *tensor.Matrix) {
	grads := make([]*tensor.Matrix, len(f.shards))
	d := dlogits
	for li := len(f.spec.Layers) - 1; li >= f.startLi; li-- {
		l := &f.spec.Layers[li]
		switch l.Kind {
		case nn.Dropout:
			continue
		case nn.FC:
		}
		if li != f.lastW {
			d = nn.ReLUBackward(d, f.matPre[li])
		}
		dyShard := RowShard(d, f.pr, f.r)
		partialW := tensor.MatMulNT(dyShard, f.matIn[li])
		grads[f.slot[li]] = AllReduceMat(f.rowComm, partialW) // Eq. 8 ∆W all-reduce over Pc
		if li == 0 {
			return grads, nil
		}
		partialX := tensor.MatMulTN(f.shards[f.slot[li]], dyShard)
		d = AllReduceMat(f.colComm, partialX) // Eq. 8 ∆X all-reduce over Pr
		if li == f.startLi {
			return grads, d
		}
	}
	return grads, nil
}

// Apply updates the local weight shards with the given optimizer (state
// is per-matrix, so shard-local optimizer state matches serial exactly).
func (f *refFC15D) Apply(opt nn.Optimizer, grads []*tensor.Matrix) {
	opt.Step(f.shards, grads)
}

// Assemble all-gathers the shards into full weight matrices (one per FC
// layer, in slot order). Every rank of the column group must call it.
func (f *refFC15D) Assemble() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(f.shards))
	for i, s := range f.shards {
		out[i] = GatherMatrixRows(f.colComm, s, s.Rows*f.pr)
	}
	return out
}

// --- Verbatim copy of the batch engine the 1 × P walk replaced ---

// refRunBatch trains with pure batch parallelism (Fig. 2): every rank holds a
// full model replica and 1/P of each minibatch; the only communication is
// one gradient all-reduce per step (Eq. 4). Replicas stay bit-identical
// because every rank applies the same reduced gradient.
func refRunBatch(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if w.Size() > cfg.BatchSize {
		return Result{}, fmt.Errorf("parallel: batch parallelism needs P ≤ B, got P=%d B=%d", w.Size(), cfg.BatchSize)
	}
	return RunRanks(w, func(p *mpi.Proc) ([]*tensor.Matrix, []float64) {
		world := p.WorldComm()
		model := nn.NewModel(cfg.Spec, cfg.Seed)
		opt := cfg.optimizer()
		shard := grid.BlockShard(cfg.BatchSize, p.Size(), p.Rank())
		losses := make([]float64, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			x, labels := ds.Batch(s, cfg.BatchSize)
			lx := x.SliceSamples(shard.Lo, shard.Hi)
			ll := labels[shard.Lo:shard.Hi]
			loss, grads := model.ForwardBackward(lx, ll)
			// Local grads are averaged over the shard; reweight to the
			// global 1/B average before the sum-reduce.
			flat := refFlattenMats(grads, float64(shard.Len())/float64(cfg.BatchSize))
			reduced := world.AllReduceSum(flat)
			model.Apply(opt, UnflattenLike(model.Weights, reduced))
			losses = append(losses, GlobalLoss(world, loss, shard.Len(), cfg.BatchSize))
		}
		return model.CloneWeights(), losses
	}), nil
}

// refFlattenMats packs a list of matrices into one contiguous vector, scaling
// each element by scale — used to issue a single gradient all-reduce per
// step, like production data-parallel frameworks.
func refFlattenMats(ms []*tensor.Matrix, scale float64) []float64 {
	n := 0
	for _, m := range ms {
		n += len(m.Data)
	}
	out := make([]float64, 0, n)
	for _, m := range ms {
		for _, v := range m.Data {
			out = append(out, v*scale)
		}
	}
	return out
}
