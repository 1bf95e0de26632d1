package rnn

import (
	"fmt"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/tensor"
)

// RunLSTMSerial trains the reference LSTM.
func RunLSTMSerial(tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	return runSerial(tc, ds, NewLSTM)
}

// RunLSTMBatch trains the LSTM with pure batch parallelism.
func RunLSTMBatch(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) {
	return runBatch(w, tc, ds, NewLSTM)
}

// RunLSTM15D trains with the 1.5D algorithm on a Pr × Pc grid. The packed
// gate matrix row-shards like any FC layer (the gates are four stacked FC
// blocks); per timestep the gate panel is gathered over the column group
// and ∆z all-reduced back, with one weight all-reduce per iteration.
// Requires Hidden % Pr == 0, Classes % Pr == 0, B % Pc == 0.
func RunLSTM15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error) {
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
	hdim := tc.Cfg.Hidden
	return parallel.RunRanks(w, func(p *mpi.Proc) ([]*tensor.Matrix, []float64) {
		r, c := g.Coords(p.Rank())
		rowComm := p.CommFrom(g.RowGroup(r))
		colComm := p.CommFrom(g.ColGroup(c))
		full := NewLSTM(tc.Cfg, tc.Seed)
		wShard := parallel.RowShard(full.Weights[0], g.Pr, r)   // (4h/Pr) × (in+h)
		whyShard := parallel.RowShard(full.Weights[1], g.Pr, r) // (classes/Pr) × h
		shards := []*tensor.Matrix{wShard, whyShard}
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

			// Forward.
			states := make([]lstmState, tc.Cfg.T+1)
			hs := make([]*tensor.Matrix, tc.Cfg.T+1)
			hs[0] = tensor.New(hdim, localB)
			states[0].c = tensor.New(hdim, localB)
			for t := 1; t <= tc.Cfg.T; t++ {
				z := concatZ(xs[t-1], hs[t-1])
				aLocal := tensor.MatMul(shards[0], z)
				a := parallel.GatherMatrixRows(colComm, aLocal, 4*hdim) // gate-panel gather ×T
				gi, gf, gout, gg := gatesFromPacked(a, hdim)
				ct, tanhC, h := stepCell(gi, gf, gout, gg, states[t-1].c)
				states[t] = lstmState{z: z, i: gi, f: gf, o: gout, g: gg, c: ct, tanhC: tanhC}
				hs[t] = h
			}
			logitsLocal := tensor.MatMul(shards[1], hs[tc.Cfg.T])
			logits := parallel.GatherMatrixRows(colComm, logitsLocal, tc.Cfg.Classes)
			loss, dlogits := nn.SoftmaxCrossEntropy(logits, ll)
			dlogits.ScaleInPlace(float64(localB) / float64(tc.BatchSize))

			// Backward through time.
			dW := tensor.New(shards[0].Rows, shards[0].Cols)
			dWhy := tensor.MatMulNT(parallel.RowShard(dlogits, g.Pr, r), hs[tc.Cfg.T])
			dhPartial := tensor.MatMulTN(shards[1], parallel.RowShard(dlogits, g.Pr, r))
			dh := parallel.AllReduceMat(colComm, dhPartial)
			dc := tensor.New(hdim, localB)
			for t := tc.Cfg.T; t >= 1; t-- {
				st := &states[t]
				di, df, do, dg := tensor.New(hdim, localB), tensor.New(hdim, localB), tensor.New(hdim, localB), tensor.New(hdim, localB)
				dcPrev := tensor.New(hdim, localB)
				for k := range dh.Data {
					do.Data[k] = dh.Data[k] * st.tanhC.Data[k]
					dct := dh.Data[k]*st.o.Data[k]*(1-st.tanhC.Data[k]*st.tanhC.Data[k]) + dc.Data[k]
					df.Data[k] = dct * states[t-1].c.Data[k]
					di.Data[k] = dct * st.g.Data[k]
					dg.Data[k] = dct * st.i.Data[k]
					dcPrev.Data[k] = dct * st.f.Data[k]
				}
				da := packedGateGrad(st, di, df, do, dg)
				daShard := parallel.RowShard(da, g.Pr, r)
				dW.AddInPlace(tensor.MatMulNT(daShard, st.z))
				if t > 1 {
					dzPartial := tensor.MatMulTN(shards[0], daShard)
					dz := parallel.AllReduceMat(colComm, dzPartial) // ∆z all-reduce ×(T−1)
					dh = dz.SliceRows(tc.Cfg.In, tc.Cfg.In+hdim)
					dc = dcPrev
				}
			}
			flat := parallel.FlattenMats([]*tensor.Matrix{dW, dWhy}, 1)
			opt.Step(shards, parallel.UnflattenLike(shards, rowComm.AllReduceSum(flat)))
			losses = append(losses, parallel.GlobalLoss(rowComm, loss, localB, tc.BatchSize))
		}
		ws := []*tensor.Matrix{
			parallel.GatherMatrixRows(colComm, shards[0], 4*hdim),
			parallel.GatherMatrixRows(colComm, shards[1], tc.Cfg.Classes),
		}
		return ws, losses
	}), nil
}
