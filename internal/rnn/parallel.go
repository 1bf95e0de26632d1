package rnn

import (
	"fmt"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/tensor"
)

// Distributed BPTT on a Pr × Pc grid. The communication per iteration:
// per timestep, an all-gather of the cell's pre-activation panel over the
// Pr column group (forward) and an all-reduce of its ∆ (backward); plus
// one |W|/Pr weight all-reduce over the Pc row group — the Eq. 8
// structure with the first two terms multiplied by T. On the 1 × P grid
// (pure batch parallelism) the column groups are single ranks, so only
// the one all-reduce of all the gradient matrices remains: time-shared
// weights amortize BPTT over T steps, and Eq. 4 is unchanged.

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

// trainable is what the serial run needs of a recurrent model; the Elman
// Model and the LSTM both provide it.
type trainable interface {
	ForwardBackward(xs []*tensor.Matrix, labels []int) (float64, []*tensor.Matrix)
	Apply(opt nn.Optimizer, grads []*tensor.Matrix)
	CloneWeights() []*tensor.Matrix
}

// RunSerial trains the reference Elman model.
func RunSerial(tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	return runSerial(tc, ds, NewModel)
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

// RunIntegrated15D trains the Elman model with the 1.5D model+batch
// algorithm on a Pr × Pc grid: W_xh and W_hh row-sharded over Pr (hidden
// units split), W_hy row-sharded over Pr (classes split), sequences
// block-sharded over Pc; 1×P is pure batch parallelism. Requires Pc ≤ B
// and Pr dividing Hidden and Classes (the grids BestGrid chooses from).
func RunIntegrated15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error) {
	return run15D(w, tc, ds, g, elman)
}

// A cell's timesteps, and the per-rank matrix operations of run15D they
// call: the column gather of a pre-activation panel, the row shard of its
// gradient, and the ∆ all-reduce.
type (
	stepForward  = func(t int) *tensor.Matrix
	stepBackward = func(t int, dh *tensor.Matrix, grads []*tensor.Matrix) *tensor.Matrix
	matFn        = func(*tensor.Matrix) *tensor.Matrix
)

// A cell is what one recurrent cell adds to run15D, the 1.5D BPTT body.
//
// sizes gives the three numbers its Eq. 8 price reads: the rows per
// sequence one timestep all-gathers (the pre-activation panel) and
// all-reduces back (∆ of the step input), and the parameter count.
// weights builds the full deterministic weights, W_hy last.
//
// steps returns one iteration's timesteps over the row-sharded weights
// ws, the local inputs xs and the hidden states hs, which the body fills
// from forward's results. forward(t) returns h_t, around the body's column
// gather. backward(t, ∆h_t, grads) adds the step's weight gradients into
// grads and returns ∆h_{t−1}, around the body's row shard and ∆
// all-reduce; it returns nil at t = 1, which sends nothing back.
type cell struct {
	sizes   func(Config) (gather, delta, params int)
	weights func(Config, int64) []*tensor.Matrix
	steps   func(cfg Config, ws, xs, hs []*tensor.Matrix, gather, shard, reduce matFn) (stepForward, stepBackward)
}

// elman is the Elman cell, h_t = tanh(W_xh·x_t + W_hh·h_{t−1}).
var elman = cell{
	sizes:   func(c Config) (int, int, int) { return c.Hidden, c.Hidden, c.Weights() },
	weights: func(c Config, seed int64) []*tensor.Matrix { return NewModel(c, seed).Weights },
	steps: func(_ Config, ws, xs, hs []*tensor.Matrix, gather, shard, reduce matFn) (stepForward, stepBackward) {
		forward := func(t int) *tensor.Matrix {
			a := tensor.MatMul(ws[0], xs[t-1])
			a.AddInPlace(tensor.MatMul(ws[1], hs[t-1]))
			return TanhForward(gather(a))
		}
		backward := func(t int, dh *tensor.Matrix, grads []*tensor.Matrix) *tensor.Matrix {
			da := shard(TanhBackward(dh, hs[t]))
			grads[0].AddInPlace(tensor.MatMulNT(da, xs[t-1]))
			grads[1].AddInPlace(tensor.MatMulNT(da, hs[t-1]))
			if t == 1 {
				return nil
			}
			return reduce(tensor.MatMulTN(ws[1], da))
		}
		return forward, backward
	},
}

// run15D trains cl with 1.5D BPTT on a Pr × Pc grid: every weight matrix
// row-sharded over Pr, the sequences block-sharded over Pc. Per timestep
// the cell's pre-activation panel is all-gathered over the column group
// and its ∆ all-reduced back (Eq. 8's activation terms, ×T); the logits
// are gathered and ∆h_T all-reduced once; and the weight gradients,
// accumulated locally over all T steps, cross the row group in one
// flattened all-reduce of |W|/Pr words.
func run15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid, cl cell) (parallel.Result, error) {
	if err := tc.validate(); err != nil {
		return parallel.Result{}, err
	}
	cfg := tc.Cfg
	if g.P() != w.Size() {
		return parallel.Result{}, fmt.Errorf("rnn: grid %v needs %d ranks, world has %d", g, g.P(), w.Size())
	}
	if !fits15D(cfg, tc.BatchSize, g) {
		return parallel.Result{}, fmt.Errorf("rnn: grid %v needs Pc ≤ B=%d and Pr dividing hidden=%d and classes=%d",
			g, tc.BatchSize, cfg.Hidden, cfg.Classes)
	}
	gatherRows, _, _ := cl.sizes(cfg)
	return parallel.RunRanks(w, func(p *mpi.Proc) ([]*tensor.Matrix, []float64) {
		r, c := g.Coords(p.Rank())
		rowComm := p.CommFrom(g.RowGroup(r))
		colComm := p.CommFrom(g.ColGroup(c))
		gather := func(a *tensor.Matrix) *tensor.Matrix { return parallel.GatherMatrixRows(colComm, a, gatherRows) }
		shard := func(m *tensor.Matrix) *tensor.Matrix { return parallel.RowShard(m, g.Pr, r) }
		reduce := func(m *tensor.Matrix) *tensor.Matrix { return parallel.AllReduceMat(colComm, m) }
		full := cl.weights(cfg, tc.Seed)
		ws := make([]*tensor.Matrix, len(full))
		for i, m := range full {
			ws[i] = shard(m)
		}
		why := ws[len(ws)-1]
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
			hs := make([]*tensor.Matrix, cfg.T+1)
			hs[0] = tensor.New(cfg.Hidden, localB)
			forward, backward := cl.steps(cfg, ws, xs, hs, gather, shard, reduce)
			for t := 1; t <= cfg.T; t++ {
				hs[t] = forward(t)
			}
			logits := parallel.GatherMatrixRows(colComm, tensor.MatMul(why, hs[cfg.T]), cfg.Classes)
			loss, dlogits := nn.SoftmaxCrossEntropy(logits, labels[bShard.Lo:bShard.Hi])
			dlogits.ScaleInPlace(float64(localB) / float64(tc.BatchSize))

			// Backward through time into locally accumulated gradients.
			dl := shard(dlogits)
			grads := make([]*tensor.Matrix, len(ws))
			for i, m := range ws[:len(ws)-1] {
				grads[i] = tensor.New(m.Rows, m.Cols)
			}
			grads[len(ws)-1] = tensor.MatMulNT(dl, hs[cfg.T])
			dh := reduce(tensor.MatMulTN(why, dl))
			for t := cfg.T; t >= 1; t-- {
				dh = backward(t, dh, grads)
			}
			opt.Step(ws, parallel.UnflattenLike(ws, rowComm.AllReduceSum(parallel.FlattenMats(grads))))
			losses = append(losses, parallel.GlobalLoss(rowComm, loss, localB, tc.BatchSize))
		}
		out := make([]*tensor.Matrix, len(ws))
		for i, m := range ws {
			out[i] = parallel.GatherMatrixRows(colComm, m, full[i].Rows)
		}
		return out, losses
	}), nil
}
