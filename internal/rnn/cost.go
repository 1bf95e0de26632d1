package rnn

import (
	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// Analytic communication cost of 1.5D BPTT on a Pr × Pc grid — the Eq. 8
// structure specialized to recurrent weight sharing. For a cell whose
// timestep all-gathers a pre-activation panel of a rows per sequence and
// all-reduces a ∆ panel of d rows (Elman: a = d = h; LSTM: a = 4h,
// d = in+h), with |W| parameters:
//
//	T_comm = T·(α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·a)         panel all-gathers
//	       + (T−1)·2·(α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d)   ∆ all-reduces
//	                                                      (none past t = 1,
//	                                                      the Eq. 3 i ≥ 2 bound)
//	       + (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·c)           logits gather
//	       + 2·(α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·h)         ∆h_T from logits
//	       + 2·(α⌈log Pc⌉ + β·(Pc−1)/Pc·|W|/Pr)           ONE weight all-reduce
//
// The last term is independent of T because the weights are shared
// across timesteps and BPTT accumulates their gradients locally before a
// single reduction. This is why longer sequences shift the optimum toward
// batch parallelism (larger Pc), the mirror image of the feed-forward
// Eq. 5 analysis.
func (cl cell) cost(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
	gather, delta, params := cl.sizes(cfg)
	localB := float64(B) / float64(g.Pc)
	var total collective.Cost
	for t := 0; t < cfg.T; t++ {
		total = total.Add(collective.AllGather(g.Pr, localB*float64(gather), m))
		if t < cfg.T-1 {
			total = total.Add(collective.AllReduce(g.Pr, localB*float64(delta), m))
		}
	}
	total = total.Add(collective.AllGather(g.Pr, localB*float64(cfg.Classes), m))
	total = total.Add(collective.AllReduce(g.Pr, localB*float64(cfg.Hidden), m))
	return total.Add(collective.AllReduce(g.Pc, float64(params)/float64(g.Pr), m))
}

// Cost15D is the 1.5D BPTT communication cost of the Elman network.
func Cost15D(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
	return elman.cost(cfg, B, g, m)
}

// LSTMCost15D is the 1.5D BPTT communication cost of the packed-gate LSTM.
func LSTMCost15D(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
	return lstmCell.cost(cfg, B, g, m)
}

// fits15D is the one rule for which grids 1.5D BPTT runs on, read by both
// BestGrid and the engines: every column group needs a sequence (Pc ≤ B;
// B need not divide evenly), and Pr must divide both Hidden and Classes so
// the row-sharded panels gather whole.
func fits15D(cfg Config, B int, g grid.Grid) bool {
	return g.Pc <= B && cfg.Hidden%g.Pr == 0 && cfg.Classes%g.Pr == 0
}

// BestGrid searches factorizations of P for the lowest communication cost
// at batch size B, returning the winning grid and its cost. ok is false
// when no factorization fits (see fits15D).
func BestGrid(cfg Config, B, P int, m machine.Machine) (best grid.Grid, bestCost collective.Cost, ok bool) {
	for _, g := range grid.Factorizations(P) {
		if !fits15D(cfg, B, g) {
			continue
		}
		c := Cost15D(cfg, B, g, m)
		if !ok || c.Total() < bestCost.Total() {
			best, bestCost, ok = g, c, true
		}
	}
	return best, bestCost, ok
}
