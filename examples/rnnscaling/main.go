// RNN scaling (the paper's §1 note that the analysis "naturally extends"
// to recurrent networks): train an Elman RNN with distributed BPTT on the
// simulated cluster, show the 1.5D engine is loss-identical to serial,
// and sweep sequence length to expose the recurrent twist on Eq. 5 —
// weights are reduced once per iteration while hidden panels move every
// timestep, so longer sequences favor batch parallelism.
package main

import (
	"fmt"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/report"
	"dnnparallel/internal/rnn"
)

func main() {
	mach := machine.CoriKNL()

	// Part 1: executable 1.5D BPTT, loss-identical to serial.
	cfg := rnn.Config{In: 8, Hidden: 16, Classes: 4, T: 6}
	ds := rnn.SyntheticSequences(cfg, 64, 3)
	tc := rnn.TrainConfig{Cfg: cfg, Seed: 4, LR: 0.1, Steps: 8, BatchSize: 16}
	serial, err := rnn.RunSerial(tc, ds)
	must(err)
	dist, err := rnn.RunIntegrated15D(mpi.NewWorld(4, mach), tc, ds, grid.Grid{Pr: 2, Pc: 2})
	must(err)
	fmt.Println("Distributed BPTT on a 2x2 grid vs serial (losses):")
	for i := range serial.Losses {
		fmt.Printf("  step %d  serial %.8f  1.5D %.8f\n", i, serial.Losses[i], dist.Losses[i])
	}

	// Part 2: the analytic sweep — best grid vs sequence length.
	big := rnn.Config{In: 1024, Hidden: 4096, Classes: 64}
	const B, P = 256, 64
	fmt.Printf("\nBest grid for a %0.1fM-weight RNN at B=%d, P=%d as T grows:\n",
		float64(rnn.Config{In: 1024, Hidden: 4096, Classes: 64, T: 1}.Weights())/1e6, B, P)
	var rows [][]string
	for _, T := range []int{1, 4, 16, 64, 256} {
		c := big
		c.T = T
		g, cost, ok := rnn.BestGrid(c, B, P, mach)
		if !ok {
			rows = append(rows, []string{fmt.Sprintf("%d", T), "no grid fits", "-", "-", "-"})
			continue
		}
		pure := rnn.Cost15D(c, B, grid.Grid{Pr: 1, Pc: P}, mach)
		rows = append(rows, []string{
			fmt.Sprintf("%d", T), g.String(),
			report.F(cost.Total()), report.F(pure.Total()),
			fmt.Sprintf("%.2fx", pure.Total()/cost.Total()),
		})
	}
	fmt.Print(report.Table(
		[]string{"T", "best grid", "comm s/iter", "pure batch s/iter", "comm speedup"},
		rows))
	fmt.Println("\nLonger sequences amortize the weight all-reduce and shift the optimum toward batch parallelism.")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
