package rnn

// Reference copies of the serial, batch and 1.5D runs as they were before
// the Elman and LSTM versions shared one body, and of the two Eq. 8 pricers
// before they shared one loop, kept verbatim (identifiers prefixed with
// ref, helpers under parallel's exported names, the scaling flatten as
// refFlattenMats) as oracles: each shared body must reproduce their whole
// Result — weights, losses and per-rank mpi.Stats — bit for bit, and the
// shared pricer their Cost exactly. The batch runs are reproduced by the
// 1.5D body on the 1 × P grid, as TestSharedSerialBatchOracle states.

import (
	"fmt"
	"sync"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
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
			flat := refFlattenMats(grads, float64(shard.Len())/float64(tc.BatchSize))
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
			flat := refFlattenMats(grads, float64(shard.Len())/float64(tc.BatchSize))
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

// refRunIntegrated15D is the Elman 1.5D BPTT engine before run15D.
func refRunIntegrated15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error) {
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
			flat := parallel.FlattenMats([]*tensor.Matrix{dWxh, dWhh, dWhy})
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

// refRunLSTM15D is the LSTM 1.5D BPTT engine before run15D.
func refRunLSTM15D(w *mpi.World, tc TrainConfig, ds *Sequences, g grid.Grid) (parallel.Result, error) {
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
				z := tensor.VStack(xs[t-1], hs[t-1])
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
				da := refPackedGateGrad(st, di, df, do, dg)
				daShard := parallel.RowShard(da, g.Pr, r)
				dW.AddInPlace(tensor.MatMulNT(daShard, st.z))
				if t > 1 {
					dzPartial := tensor.MatMulTN(shards[0], daShard)
					dz := parallel.AllReduceMat(colComm, dzPartial) // ∆z all-reduce ×(T−1)
					dh = dz.SliceRows(tc.Cfg.In, tc.Cfg.In+hdim)
					dc = dcPrev
				}
			}
			flat := parallel.FlattenMats([]*tensor.Matrix{dW, dWhy})
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

// refPackedGateGrad is the gate-gradient assembly refRunLSTM15D calls.
func refPackedGateGrad(st *lstmState, di, df, do, dg *tensor.Matrix) *tensor.Matrix {
	h, b := di.Rows, di.Cols
	da := tensor.New(4*h, b)
	for r := 0; r < h; r++ {
		for c := 0; c < b; c++ {
			iv, fv, ov, gv := st.i.At(r, c), st.f.At(r, c), st.o.At(r, c), st.g.At(r, c)
			da.Set(r, c, di.At(r, c)*iv*(1-iv))
			da.Set(h+r, c, df.At(r, c)*fv*(1-fv))
			da.Set(2*h+r, c, do.At(r, c)*ov*(1-ov))
			da.Set(3*h+r, c, dg.At(r, c)*(1-gv*gv))
		}
	}
	return da
}

// refCost15D is the Elman Eq. 8 pricer before the one pricing loop.
func refCost15D(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
	localB := float64(B) / float64(g.Pc)
	var total collective.Cost
	// Per-timestep hidden gather; ∆h all-reduce for t = T…2 only.
	hWords := localB * float64(cfg.Hidden)
	for t := 0; t < cfg.T; t++ {
		total = total.Add(collective.AllGather(g.Pr, hWords, m))
		if t < cfg.T-1 {
			total = total.Add(collective.AllReduce(g.Pr, hWords, m))
		}
	}
	// Output layer: logits gather + ∆h_T all-reduce.
	total = total.Add(collective.AllGather(g.Pr, localB*float64(cfg.Classes), m))
	total = total.Add(collective.AllReduce(g.Pr, hWords, m))
	// Single weight gradient all-reduce over the row group.
	total = total.Add(collective.AllReduce(g.Pc, float64(cfg.Weights())/float64(g.Pr), m))
	return total
}

// refLSTMCost15D is the LSTM Eq. 8 pricer before the one pricing loop.
func refLSTMCost15D(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
	localB := float64(B) / float64(g.Pc)
	var total collective.Cost
	gateWords := localB * 4 * float64(cfg.Hidden)
	dzWords := localB * float64(cfg.In+cfg.Hidden)
	for t := 0; t < cfg.T; t++ {
		total = total.Add(collective.AllGather(g.Pr, gateWords, m))
		if t < cfg.T-1 {
			total = total.Add(collective.AllReduce(g.Pr, dzWords, m))
		}
	}
	total = total.Add(collective.AllGather(g.Pr, localB*float64(cfg.Classes), m))
	total = total.Add(collective.AllReduce(g.Pr, localB*float64(cfg.Hidden), m))
	lstmWeights := 4*cfg.Hidden*(cfg.In+cfg.Hidden) + cfg.Classes*cfg.Hidden
	total = total.Add(collective.AllReduce(g.Pc, float64(lstmWeights)/float64(g.Pr), m))
	return total
}
