package rnn

import (
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/tensor"
)

// RunLSTMSerial trains the reference LSTM.
func RunLSTMSerial(tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	return runSerial(tc, ds, NewLSTM)
}

// RunLSTM15D trains the LSTM with the 1.5D algorithm on a Pr × Pc grid.
// The packed gate matrix row-shards like any FC layer (the gates are four
// stacked FC blocks); per timestep the gate panel is gathered over the
// column group and ∆z all-reduced back, with one weight all-reduce per
// iteration; 1×P is pure batch parallelism. Requires Pc ≤ B and Pr
// dividing Hidden and Classes.
func RunLSTM15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error) {
	return run15D(w, tc, ds, g, lstmCell)
}

// lstmCell is the packed-gate LSTM cell: it gathers the 4h gate panel and
// all-reduces the (in+h) ∆z panel, of which the h part feeds back.
var lstmCell = cell{
	sizes: func(c Config) (int, int, int) {
		return 4 * c.Hidden, c.In + c.Hidden, 4*c.Hidden*(c.In+c.Hidden) + c.Classes*c.Hidden
	},
	weights: func(c Config, seed int64) []*tensor.Matrix { return NewLSTM(c, seed).Weights },
	steps: func(cfg Config, ws, xs, hs []*tensor.Matrix, gather, shard, reduce matFn) (stepForward, stepBackward) {
		states := make([]lstmState, cfg.T+1)
		states[0].c = tensor.New(cfg.Hidden, hs[0].Cols)
		dc := tensor.New(cfg.Hidden, hs[0].Cols)
		forward := func(t int) *tensor.Matrix {
			z := tensor.VStack(xs[t-1], hs[t-1])
			i, f, o, g := gatesFromPacked(gather(tensor.MatMul(ws[0], z)), cfg.Hidden)
			c, tanhC, h := stepCell(i, f, o, g, states[t-1].c)
			states[t] = lstmState{z: z, i: i, f: f, o: o, g: g, c: c, tanhC: tanhC}
			return h
		}
		backward := func(t int, dh *tensor.Matrix, grads []*tensor.Matrix) *tensor.Matrix {
			da, dcPrev := gateGrad(&states[t], states[t-1].c, dh, dc)
			da, dc = shard(da), dcPrev
			grads[0].AddInPlace(tensor.MatMulNT(da, states[t].z))
			if t == 1 {
				return nil
			}
			return reduce(tensor.MatMulTN(ws[0], da)).SliceRows(cfg.In, cfg.In+cfg.Hidden)
		}
		return forward, backward
	},
}
