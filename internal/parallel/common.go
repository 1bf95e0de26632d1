// Package parallel implements executable distributed-SGD training for
// every parallelization the paper analyzes, running on the internal/mpi
// simulated cluster:
//
//   - RunSerial          — the single-process reference (nn.Model);
//   - RunFullIntegrated  — the integrated algorithm on a Pr × Pc grid
//     (Section 2.4, Eq. 9), one layer walk in which each weighted layer
//     runs the costmodel.Strategy its Assignment gives it. Pure batch
//     parallelism (Fig. 2, Eq. 4) is the 1 × P grid, pure model
//     parallelism (Fig. 1, Eq. 3) P × 1 with every layer Model, pure
//     domain parallelism (Fig. 3, Eq. 7) P × 1 with every layer Domain,
//     the 1.5D algorithm (Fig. 5, Eq. 8) a network without convolutions,
//     and Domain convolutions feeding Model FC layers the beyond-batch
//     configuration of Fig. 10.
//
// Every engine consumes the same deterministic initial weights and batch
// schedule as the serial reference and is tested to reproduce its loss and
// weight trajectory to floating-point accumulation error — the executable
// counterpart of the paper's claim that all these schemes compute the
// *same* synchronous SGD iteration, differing only in communication.
// RunRanks and the exported collective helpers are shared with the
// recurrent engines of internal/rnn.
package parallel

import (
	"fmt"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// Config describes one training run.
type Config struct {
	Spec      *nn.Network
	Seed      int64
	LR        float64
	Steps     int
	BatchSize int
	// NewOptimizer, when set, supplies the first-order update rule
	// (momentum, Nesterov, …). Nil means plain SGD at LR. Engines call
	// the factory once per locally-owned weight list; because the updates
	// are element-wise, shard-local state is exactly equivalent to the
	// serial optimizer.
	NewOptimizer nn.OptimizerFactory
}

// optimizer builds this run's update rule.
func (c Config) optimizer() nn.Optimizer {
	if c.NewOptimizer != nil {
		return c.NewOptimizer()
	}
	return &nn.SGD{LR: c.LR}
}

func (c Config) validate() error {
	if c.Spec == nil {
		return fmt.Errorf("parallel: nil network spec")
	}
	if c.Steps < 1 || c.BatchSize < 1 {
		return fmt.Errorf("parallel: need Steps ≥ 1 and BatchSize ≥ 1, got %d, %d", c.Steps, c.BatchSize)
	}
	if c.LR <= 0 {
		return fmt.Errorf("parallel: non-positive learning rate %g", c.LR)
	}
	return nil
}

// Result is what an engine reports after training.
type Result struct {
	// Weights is the fully assembled weight list after the final step
	// (identical layout to nn.Model.Weights).
	Weights []*tensor.Matrix
	// Losses is the global training loss per step.
	Losses []float64
	// Stats are the per-rank mpi accounting records (nil for RunSerial).
	Stats []mpi.Stats
}

// RunSerial trains the reference model and reports its weight trajectory —
// the oracle all engines are compared against.
func RunSerial(cfg Config, ds *data.Dataset) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	m := nn.NewModel(cfg.Spec, cfg.Seed)
	opt := cfg.optimizer()
	losses := make([]float64, 0, cfg.Steps)
	for s := 0; s < cfg.Steps; s++ {
		x, labels := ds.Batch(s, cfg.BatchSize)
		loss, grads := m.ForwardBackward(x, labels)
		m.Apply(opt, grads)
		losses = append(losses, loss)
	}
	return Result{Weights: m.CloneWeights(), Losses: losses}, nil
}

// RunRanks runs body on every rank of w and returns rank 0's weights and
// losses with every rank's mpi accounting — the harness of every
// distributed engine, here and in internal/rnn.
func RunRanks(w *mpi.World, body func(p *mpi.Proc) ([]*tensor.Matrix, []float64)) Result {
	var res Result
	res.Stats = w.Run(func(p *mpi.Proc) {
		weights, losses := body(p)
		if p.Rank() == 0 {
			res.Weights, res.Losses = weights, losses
		}
	})
	return res
}

// FlattenMats packs a list of matrices into one contiguous vector, so that
// they cross a group in one collective.
func FlattenMats(ms []*tensor.Matrix) []float64 {
	n := 0
	for _, m := range ms {
		n += len(m.Data)
	}
	out := make([]float64, 0, n)
	for _, m := range ms {
		out = append(out, m.Data...)
	}
	return out
}

// UnflattenLike unpacks flat into matrices shaped like template.
func UnflattenLike(template []*tensor.Matrix, flat []float64) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(template))
	off := 0
	for i, m := range template {
		g := tensor.New(m.Rows, m.Cols)
		copy(g.Data, flat[off:off+len(m.Data)])
		off += len(m.Data)
		out[i] = g
	}
	return out
}

// RowShard returns the [lo, hi) row block of m for shard i of p. Used to
// derive each rank's weight shard from the shared deterministic full
// initialization, so shards concatenate exactly to the serial weights.
func RowShard(m *tensor.Matrix, p, i int) *tensor.Matrix {
	s := grid.BlockShard(m.Rows, p, i)
	return m.SliceRows(s.Lo, s.Hi)
}

// channelShard returns channels [lo, hi) of t for shard i of p.
func channelShard(t *tensor.Tensor4, p, i int) *tensor.Tensor4 {
	s := grid.BlockShard(t.C, p, i)
	out := tensor.NewTensor4(t.N, s.Len(), t.H, t.W)
	plane := t.H * t.W
	for n := 0; n < t.N; n++ {
		src := ((n*t.C + s.Lo) * plane)
		dst := (n * s.Len() * plane)
		copy(out.Data[dst:dst+s.Len()*plane], t.Data[src:src+s.Len()*plane])
	}
	return out
}

// gatherChannels all-gathers equal channel shards over comm and reassembles
// the full tensor (channels in comm-rank order). All shards must have the
// same channel count.
func gatherChannels(comm *mpi.Comm, shard *tensor.Tensor4, fullC int) *tensor.Tensor4 {
	p := comm.Size()
	if shard.C*p != fullC {
		panic(fmt.Sprintf("parallel: gatherChannels %d×%d ≠ %d", shard.C, p, fullC))
	}
	flat := comm.AllGather(shard.Data)
	full := tensor.NewTensor4(shard.N, fullC, shard.H, shard.W)
	plane := shard.H * shard.W
	per := shard.N * shard.C * plane
	for r := 0; r < p; r++ {
		block := flat[r*per : (r+1)*per]
		for n := 0; n < shard.N; n++ {
			src := n * shard.C * plane
			dst := ((n*fullC + r*shard.C) * plane)
			copy(full.Data[dst:dst+shard.C*plane], block[src:src+shard.C*plane])
		}
	}
	return full
}

// gatherRowsH all-gathers equal spatial row shards over comm and
// reassembles the full tensor (rows in comm-rank order).
func gatherRowsH(comm *mpi.Comm, shard *tensor.Tensor4, fullH int) *tensor.Tensor4 {
	p := comm.Size()
	if shard.H*p != fullH {
		panic(fmt.Sprintf("parallel: gatherRowsH %d×%d ≠ %d", shard.H, p, fullH))
	}
	flat := comm.AllGather(shard.Data)
	full := tensor.NewTensor4(shard.N, shard.C, fullH, shard.W)
	per := shard.Elems()
	for r := 0; r < p; r++ {
		block := tensor.Tensor4{N: shard.N, C: shard.C, H: shard.H, W: shard.W, Data: flat[r*per : (r+1)*per]}
		full.SetRowsH(r*shard.H, &block)
	}
	return full
}

// GatherMatrixRows all-gathers equal row blocks of a matrix over comm into
// the full matrix (row blocks in comm-rank order).
func GatherMatrixRows(comm *mpi.Comm, shard *tensor.Matrix, fullRows int) *tensor.Matrix {
	p := comm.Size()
	if shard.Rows*p != fullRows {
		panic(fmt.Sprintf("parallel: GatherMatrixRows %d×%d ≠ %d", shard.Rows, p, fullRows))
	}
	flat := comm.AllGather(shard.Data)
	return tensor.Wrap(fullRows, shard.Cols, flat)
}

// AllReduceMat sums a matrix element-wise across comm.
func AllReduceMat(comm *mpi.Comm, m *tensor.Matrix) *tensor.Matrix {
	return tensor.Wrap(m.Rows, m.Cols, comm.AllReduceSum(m.Data))
}

// allReduceT4 sums a tensor element-wise across comm.
func allReduceT4(comm *mpi.Comm, t *tensor.Tensor4) *tensor.Tensor4 {
	return &tensor.Tensor4{N: t.N, C: t.C, H: t.H, W: t.W, Data: comm.AllReduceSum(t.Data)}
}

// GlobalLoss averages per-shard mean losses weighted by shard size.
func GlobalLoss(comm *mpi.Comm, localLoss float64, localB, globalB int) float64 {
	s := comm.AllReduceSum([]float64{localLoss * float64(localB)})
	return s[0] / float64(globalB)
}
