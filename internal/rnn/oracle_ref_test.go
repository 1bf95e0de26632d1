package rnn

// Reference copies of the serial and batch runs as they were before the
// Elman and LSTM versions shared one body, kept verbatim (identifiers
// prefixed with ref, helpers under parallel's exported names) as oracles:
// the shared body must reproduce their whole Result — weights, losses and
// per-rank mpi.Stats — bit for bit.

import (
	"fmt"
	"sync"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/tensor"
)

// refRunSerial trains the reference model.
func refRunSerial(tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	m := NewModel(tc.Cfg, tc.Seed)
	opt := tc.optimizer()
	losses := make([]float64, 0, tc.Steps)
	for s := 0; s < tc.Steps; s++ {
		xs, labels := ds.Batch(s, tc.BatchSize)
		loss, grads := m.ForwardBackward(xs, labels)
		m.Apply(opt, grads)
		losses = append(losses, loss)
	}
	return parallel.Result{Weights: m.CloneWeights(), Losses: losses}, nil
}

// refRunBatch trains with pure batch parallelism: full replicas, sequence
// shards, one flattened gradient all-reduce per step.
func refRunBatch(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	if w.Size() > tc.BatchSize {
		return parallel.Result{}, fmt.Errorf("rnn: batch parallelism needs P ≤ B, got P=%d B=%d", w.Size(), tc.BatchSize)
	}
	var mu sync.Mutex
	var outW []*tensor.Matrix
	var outL []float64
	stats := w.Run(func(p *mpi.Proc) {
		world := p.WorldComm()
		m := NewModel(tc.Cfg, tc.Seed)
		opt := tc.optimizer()
		shard := grid.BlockShard(tc.BatchSize, p.Size(), p.Rank())
		losses := make([]float64, 0, tc.Steps)
		for s := 0; s < tc.Steps; s++ {
			xs, labels := ds.Batch(s, tc.BatchSize)
			lxs := make([]*tensor.Matrix, len(xs))
			for t, x := range xs {
				lxs[t] = x.SliceCols(shard.Lo, shard.Hi)
			}
			loss, grads := m.ForwardBackward(lxs, labels[shard.Lo:shard.Hi])
			flat := parallel.FlattenMats(grads, float64(shard.Len())/float64(tc.BatchSize))
			reduced := world.AllReduceSum(flat)
			m.Apply(opt, parallel.UnflattenLike(m.Weights, reduced))
			l := world.AllReduceSum([]float64{loss * float64(shard.Len())})
			losses = append(losses, l[0]/float64(tc.BatchSize))
		}
		if p.Rank() == 0 {
			mu.Lock()
			outW, outL = m.CloneWeights(), losses
			mu.Unlock()
		}
	})
	return parallel.Result{Weights: outW, Losses: outL, Stats: stats}, nil
}

// refRunLSTMSerial trains the reference LSTM.
func refRunLSTMSerial(tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	m := NewLSTM(tc.Cfg, tc.Seed)
	opt := tc.optimizer()
	losses := make([]float64, 0, tc.Steps)
	for s := 0; s < tc.Steps; s++ {
		xs, labels := ds.Batch(s, tc.BatchSize)
		loss, grads := m.ForwardBackward(xs, labels)
		m.Apply(opt, grads)
		losses = append(losses, loss)
	}
	return parallel.Result{Weights: m.CloneWeights(), Losses: losses}, nil
}

// refRunLSTMBatch trains with pure batch parallelism: full replicas,
// sequence shards, one flattened gradient all-reduce per step.
func refRunLSTMBatch(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	if w.Size() > tc.BatchSize {
		return parallel.Result{}, fmt.Errorf("rnn: LSTM batch parallelism needs P ≤ B, got P=%d B=%d", w.Size(), tc.BatchSize)
	}
	var mu sync.Mutex
	var outW []*tensor.Matrix
	var outL []float64
	stats := w.Run(func(p *mpi.Proc) {
		world := p.WorldComm()
		m := NewLSTM(tc.Cfg, tc.Seed)
		opt := tc.optimizer()
		shard := grid.BlockShard(tc.BatchSize, p.Size(), p.Rank())
		losses := make([]float64, 0, tc.Steps)
		for s := 0; s < tc.Steps; s++ {
			xs, labels := ds.Batch(s, tc.BatchSize)
			lxs := make([]*tensor.Matrix, len(xs))
			for t, x := range xs {
				lxs[t] = x.SliceCols(shard.Lo, shard.Hi)
			}
			loss, grads := m.ForwardBackward(lxs, labels[shard.Lo:shard.Hi])
			flat := parallel.FlattenMats(grads, float64(shard.Len())/float64(tc.BatchSize))
			m.Apply(opt, parallel.UnflattenLike(m.Weights, world.AllReduceSum(flat)))
			l := world.AllReduceSum([]float64{loss * float64(shard.Len())})
			losses = append(losses, l[0]/float64(tc.BatchSize))
		}
		if p.Rank() == 0 {
			mu.Lock()
			outW, outL = m.CloneWeights(), losses
			mu.Unlock()
		}
	})
	return parallel.Result{Weights: outW, Losses: outL, Stats: stats}, nil
}
