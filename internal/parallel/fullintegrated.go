package parallel

import (
	"fmt"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// RunFullIntegrated trains a conv+FC network with the paper's fully
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
func RunFullIntegrated(w *mpi.World, cfg Config, ds *data.Dataset, g grid.Grid) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if g.P() != w.Size() {
		return Result{}, fmt.Errorf("parallel: grid %v needs %d ranks, world has %d", g, g.P(), w.Size())
	}
	if cfg.BatchSize%g.Pc != 0 {
		return Result{}, fmt.Errorf("parallel: batch %d not divisible by Pc=%d", cfg.BatchSize, g.Pc)
	}
	fcStart := spatialPrefixEnd(cfg.Spec)
	if fcStart == len(cfg.Spec.Layers) {
		return Result{}, fmt.Errorf("parallel: RunFullIntegrated needs an FC suffix")
	}
	if fcStart > 0 {
		if err := validateDomain(cfg.Spec, g.Pr); err != nil {
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
		var stack *domainStack
		var stackOpt nn.Optimizer
		if fcStart > 0 {
			stack = newDomainStack(cfg.Spec, ref, colComm, proc.WorldComm())
			stackOpt = cfg.optimizer()
		}
		fc := newFC15D(cfg.Spec, ref, rowComm, colComm)
		fcOpt := cfg.optimizer()
		lastW := lastWeighted(cfg.Spec)
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
