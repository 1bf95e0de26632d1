package rnn

import (
	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// Analytic communication cost of 1.5D BPTT on a Pr × Pc grid — the Eq. 8
// structure specialized to recurrent weight sharing:
//
//	T_comm = T·(α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·h)         hidden all-gathers
//	       + (T−1)·2·(α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·h)   ∆h all-reduces
//	                                                      (none past t = 1,
//	                                                      the Eq. 3 i ≥ 2 bound)
//	       + (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·c)           logits gather
//	       + 2·(α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·h)         ∆h_T from logits
//	       + 2·(α⌈log Pc⌉ + β·(Pc−1)/Pc·|W|/Pr)           ONE weight all-reduce
//
// The last term is independent of T because W_xh/W_hh/W_hy are shared
// across timesteps and BPTT accumulates their gradients locally before a
// single reduction. This is why longer sequences shift the optimum toward
// batch parallelism (larger Pc), the mirror image of the feed-forward
// Eq. 5 analysis.
func Cost15D(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
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

// PureBatchCost is the Pr = 1 specialization: one all-reduce of all
// weights, independent of both B and T.
func PureBatchCost(cfg Config, P int, m machine.Machine) collective.Cost {
	return collective.AllReduce(P, float64(cfg.Weights()), m)
}

// BestGrid searches factorizations of P for the lowest communication cost
// at batch size B, returning the winning grid and its cost. ok is false
// when no factorization fits: each needs Pc ≤ B and Pr dividing both
// Hidden and Classes.
func BestGrid(cfg Config, B, P int, m machine.Machine) (best grid.Grid, bestCost collective.Cost, ok bool) {
	for _, g := range grid.Factorizations(P) {
		if g.Pc > B || cfg.Hidden%g.Pr != 0 || cfg.Classes%g.Pr != 0 {
			continue
		}
		c := Cost15D(cfg, B, g, m)
		if !ok || c.Total() < bestCost.Total() {
			best, bestCost, ok = g, c, true
		}
	}
	return best, bestCost, ok
}

// LSTMCost15D is the Cost15D analogue for the packed-gate LSTM:
// per timestep one gather of the 4h gate panel and (for t ≥ 2) one
// all-reduce of the (in+h) ∆z panel over the Pr group, plus the logits
// gather, the ∆h_T all-reduce, and ONE weight all-reduce per iteration.
func LSTMCost15D(cfg Config, B int, g grid.Grid, m machine.Machine) collective.Cost {
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
