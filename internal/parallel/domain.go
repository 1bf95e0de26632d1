package parallel

import (
	"fmt"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// RunDomain trains with pure domain parallelism (Fig. 3 / Eq. 7): every
// rank holds all weights and a 1/P horizontal slab of every sample.
// Convolutions exchange halo rows; conv weight gradients are all-reduced
// over all P ranks. The fully-connected suffix is computed redundantly on
// every rank after a row all-gather — the paper's observation that domain
// parallelism "is not applicable to fully connected layers" made concrete:
// the gather is exactly the "halo region = all of the input activations".
func RunDomain(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	p := w.Size()
	if err := validateDomain(cfg.Spec, p); err != nil {
		return Result{}, err
	}
	if spatialPrefixEnd(cfg.Spec) == len(cfg.Spec.Layers) {
		return Result{}, fmt.Errorf("parallel: RunDomain needs an FC classifier suffix")
	}
	return RunRanks(w, func(proc *mpi.Proc) ([]*tensor.Matrix, []float64) {
		world := proc.WorldComm()
		ref := nn.NewModel(cfg.Spec, cfg.Seed)
		stack := newDomainStack(cfg.Spec, ref, world, world)
		// The FC suffix runs replicated: a degenerate 1.5D grid of one
		// process (self-communicators make every collective a no-op).
		self := proc.CommFrom([]int{proc.Rank()})
		fc := newFC15D(cfg.Spec, ref, self, self)
		stackOpt, fcOpt := cfg.optimizer(), cfg.optimizer()
		lastW := lastWeighted(cfg.Spec)
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

// lastWeighted returns the index of the final weighted layer.
func lastWeighted(spec *nn.Network) int {
	w := spec.WeightedLayers()
	return w[len(w)-1]
}
