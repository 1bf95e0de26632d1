package rnn

import (
	"fmt"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/tensor"
)

// Distributed BPTT engines. The communication pattern per iteration:
//
//   - batch parallel: ONE all-reduce of all three gradient matrices
//     (time-shared weights amortize BPTT over T steps — Eq. 4 unchanged);
//   - 1.5D integrated: per timestep, an all-gather of the hidden panel
//     over the Pr column group (forward) and an all-reduce of ∆h
//     (backward); plus one |W|/Pr weight all-reduce over the Pc row group
//     — the Eq. 8 structure with the first two terms multiplied by T.

// TrainConfig drives a distributed run.
type TrainConfig struct {
	Cfg          Config
	Seed         int64
	LR           float64
	Steps        int
	BatchSize    int
	NewOptimizer nn.OptimizerFactory
}

func (c TrainConfig) optimizer() nn.Optimizer {
	if c.NewOptimizer != nil {
		return c.NewOptimizer()
	}
	return &nn.SGD{LR: c.LR}
}

func (c TrainConfig) validate() error {
	if err := c.Cfg.Validate(); err != nil {
		return err
	}
	if c.Steps < 1 || c.BatchSize < 1 || c.LR <= 0 {
		return fmt.Errorf("rnn: bad train config steps=%d B=%d lr=%g", c.Steps, c.BatchSize, c.LR)
	}
	return nil
}

// Sequences is a deterministic synthetic sequence-classification dataset:
// xs[t] is in×N (one sequence per column); labels come from a linear
// teacher over the time-summed input.
type Sequences struct {
	XS      []*tensor.Matrix
	Labels  []int
	Classes int
}

// SyntheticSequences generates n sequences for cfg.
func SyntheticSequences(cfg Config, n int, seed int64) *Sequences {
	xs := make([]*tensor.Matrix, cfg.T)
	sum := tensor.New(cfg.In, n)
	for t := range xs {
		xs[t] = tensor.Random(cfg.In, n, 1, seed+int64(t)*31)
		sum.AddInPlace(xs[t])
	}
	teacher := tensor.Random(cfg.Classes, cfg.In, 1, seed+997)
	scores := tensor.MatMul(teacher, sum)
	labels := make([]int, n)
	for j := 0; j < n; j++ {
		best := scores.At(0, j)
		for i := 1; i < cfg.Classes; i++ {
			if v := scores.At(i, j); v > best {
				best, labels[j] = v, i
			}
		}
	}
	return &Sequences{XS: xs, Labels: labels, Classes: cfg.Classes}
}

// N returns the number of sequences.
func (s *Sequences) N() int { return s.XS[0].Cols }

// Batch returns minibatch number step of size b (cyclic), as per-timestep
// column blocks plus labels.
func (s *Sequences) Batch(step, b int) ([]*tensor.Matrix, []int) {
	n := s.N()
	start := (step * b) % n
	xs := make([]*tensor.Matrix, len(s.XS))
	labels := make([]int, b)
	for t, x := range s.XS {
		xs[t] = tensor.New(x.Rows, b)
		for i := 0; i < b; i++ {
			src := (start + i) % n
			for r := 0; r < x.Rows; r++ {
				xs[t].Set(r, i, x.At(r, src))
			}
		}
	}
	for i := 0; i < b; i++ {
		labels[i] = s.Labels[(start+i)%n]
	}
	return xs, labels
}

// trainable is what the serial and batch runs need of a recurrent model;
// the Elman Model and the LSTM both provide it.
type trainable interface {
	ForwardBackward(xs []*tensor.Matrix, labels []int) (float64, []*tensor.Matrix)
	Apply(opt nn.Optimizer, grads []*tensor.Matrix)
	CloneWeights() []*tensor.Matrix
}

// RunSerial trains the reference Elman model.
func RunSerial(tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	return runSerial(tc, ds, NewModel)
}

// RunBatch trains the Elman model with pure batch parallelism.
func RunBatch(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	return runBatch(w, tc, ds, NewModel)
}

// runSerial trains the model newModel builds, on one process.
func runSerial[M trainable](tc TrainConfig, ds *Sequences, newModel func(Config, int64) M) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	m := newModel(tc.Cfg, tc.Seed)
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

// runBatch trains with pure batch parallelism: full replicas, sequence
// shards, one flattened gradient all-reduce per step.
func runBatch[M trainable](w *mpi.World, tc TrainConfig, ds *Sequences, newModel func(Config, int64) M) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	if w.Size() > tc.BatchSize {
		return parallel.Result{}, fmt.Errorf("rnn: batch parallelism needs P ≤ B, got P=%d B=%d", w.Size(), tc.BatchSize)
	}
	return parallel.RunRanks(w, func(p *mpi.Proc) ([]*tensor.Matrix, []float64) {
		world := p.WorldComm()
		m := newModel(tc.Cfg, tc.Seed)
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
			m.Apply(opt, parallel.UnflattenLike(grads, world.AllReduceSum(flat)))
			losses = append(losses, parallel.GlobalLoss(world, loss, shard.Len(), tc.BatchSize))
		}
		return m.CloneWeights(), losses
	}), nil
}

// RunIntegrated15D trains with the 1.5D model+batch algorithm on a
// Pr × Pc grid: W_xh and W_hh row-sharded over Pr (hidden units split),
// W_hy row-sharded over Pr (classes split), sequences sharded over Pc.
// Requires Hidden % Pr == 0, Classes % Pr == 0, B % Pc == 0.
func RunIntegrated15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	if g.P() != w.Size() {
		return parallel.Result{}, fmt.Errorf("rnn: grid %v needs %d ranks, world has %d", g, g.P(), w.Size())
	}
	if tc.Cfg.Hidden%g.Pr != 0 || tc.Cfg.Classes%g.Pr != 0 {
		return parallel.Result{}, fmt.Errorf("rnn: hidden=%d and classes=%d must divide Pr=%d",
			tc.Cfg.Hidden, tc.Cfg.Classes, g.Pr)
	}
	if tc.BatchSize%g.Pc != 0 {
		return parallel.Result{}, fmt.Errorf("rnn: batch %d not divisible by Pc=%d", tc.BatchSize, g.Pc)
	}
	return parallel.RunRanks(w, func(p *mpi.Proc) ([]*tensor.Matrix, []float64) {
		r, c := g.Coords(p.Rank())
		rowComm := p.CommFrom(g.RowGroup(r))
		colComm := p.CommFrom(g.ColGroup(c))
		full := NewModel(tc.Cfg, tc.Seed)
		// Row shards of each weight matrix.
		shards := []*tensor.Matrix{
			parallel.RowShard(full.Weights[0], g.Pr, r),
			parallel.RowShard(full.Weights[1], g.Pr, r),
			parallel.RowShard(full.Weights[2], g.Pr, r),
		}
		opt := tc.optimizer()
		bShard := grid.BlockShard(tc.BatchSize, g.Pc, c)
		localB := bShard.Len()
		losses := make([]float64, 0, tc.Steps)
		for s := 0; s < tc.Steps; s++ {
			xsFull, labels := ds.Batch(s, tc.BatchSize)
			xs := make([]*tensor.Matrix, len(xsFull))
			for t, x := range xsFull {
				xs[t] = x.SliceCols(bShard.Lo, bShard.Hi)
			}
			ll := labels[bShard.Lo:bShard.Hi]

			// Forward: local hidden panel per step, gathered over Pr.
			hs := make([]*tensor.Matrix, tc.Cfg.T+1)
			hs[0] = tensor.New(tc.Cfg.Hidden, localB)
			for t := 1; t <= tc.Cfg.T; t++ {
				a := tensor.MatMul(shards[0], xs[t-1])
				a.AddInPlace(tensor.MatMul(shards[1], hs[t-1]))
				aFull := parallel.GatherMatrixRows(colComm, a, tc.Cfg.Hidden) // Eq. 8 all-gather ×T
				hs[t] = TanhForward(aFull)
			}
			logitsLocal := tensor.MatMul(shards[2], hs[tc.Cfg.T])
			logits := parallel.GatherMatrixRows(colComm, logitsLocal, tc.Cfg.Classes)
			loss, dlogits := nn.SoftmaxCrossEntropy(logits, ll)
			dlogits.ScaleInPlace(float64(localB) / float64(tc.BatchSize))

			// Backward through time.
			dWxh := tensor.New(shards[0].Rows, shards[0].Cols)
			dWhh := tensor.New(shards[1].Rows, shards[1].Cols)
			dWhy := tensor.MatMulNT(parallel.RowShard(dlogits, g.Pr, r), hs[tc.Cfg.T])
			partial := tensor.MatMulTN(shards[2], parallel.RowShard(dlogits, g.Pr, r))
			dh := parallel.AllReduceMat(colComm, partial) // Eq. 8 ∆X all-reduce
			for t := tc.Cfg.T; t >= 1; t-- {
				da := TanhBackward(dh, hs[t])
				daShard := parallel.RowShard(da, g.Pr, r)
				dWxh.AddInPlace(tensor.MatMulNT(daShard, xs[t-1]))
				dWhh.AddInPlace(tensor.MatMulNT(daShard, hs[t-1]))
				if t > 1 {
					dh = parallel.AllReduceMat(colComm, tensor.MatMulTN(shards[1], daShard))
				}
			}
			// One weight all-reduce over the row group (volume |W|/Pr).
			flat := parallel.FlattenMats([]*tensor.Matrix{dWxh, dWhh, dWhy}, 1)
			reduced := rowComm.AllReduceSum(flat)
			opt.Step(shards, parallel.UnflattenLike(shards, reduced))
			losses = append(losses, parallel.GlobalLoss(rowComm, loss, localB, tc.BatchSize))
		}
		ws := []*tensor.Matrix{
			parallel.GatherMatrixRows(colComm, shards[0], tc.Cfg.Hidden),
			parallel.GatherMatrixRows(colComm, shards[1], tc.Cfg.Hidden),
			parallel.GatherMatrixRows(colComm, shards[2], tc.Cfg.Classes),
		}
		return ws, losses
	}), nil
}
