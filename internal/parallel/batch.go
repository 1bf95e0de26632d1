package parallel

import (
	"fmt"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// RunBatch trains with pure batch parallelism (Fig. 2): every rank holds a
// full model replica and 1/P of each minibatch; the only communication is
// one gradient all-reduce per step (Eq. 4). Replicas stay bit-identical
// because every rank applies the same reduced gradient.
func RunBatch(w *mpi.World, cfg Config, ds *data.Dataset) (Result, error) {
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
			flat := FlattenMats(grads, float64(shard.Len())/float64(cfg.BatchSize))
			reduced := world.AllReduceSum(flat)
			model.Apply(opt, UnflattenLike(model.Weights, reduced))
			losses = append(losses, GlobalLoss(world, loss, shard.Len(), cfg.BatchSize))
		}
		return model.CloneWeights(), losses
	}), nil
}
