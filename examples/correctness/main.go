// Correctness demo: run real distributed SGD on the simulated cluster
// under every parallelization strategy and show that all of them follow
// the serial loss trajectory exactly (Figs. 1, 2 and 3, and the Eq. 9
// integrated configuration, as running code), while moving very
// different amounts of data — the paper's whole point. Each strategy is a
// (grid, assignment) pair of one engine, parallel.RunFullIntegrated.
package main

import (
	"fmt"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/experiments"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/parallel"
)

func main() {
	spec := experiments.ReferenceConvNet()
	ds := data.Synthetic(64, spec.Input, spec.Output().C, 11)
	cfg := parallel.Config{Spec: spec, Seed: 12, LR: 0.08, Steps: 8, BatchSize: 16}
	mach := machine.CoriKNL()

	serial, err := parallel.RunSerial(cfg, ds)
	must(err)

	engines := []struct {
		name   string
		g      grid.Grid
		assign costmodel.Assignment
	}{
		{"batch 1x4", grid.Grid{Pr: 1, Pc: 4}, nil},
		{"model 4x1", grid.Grid{Pr: 4, Pc: 1}, nil},
		{"domain 4x1", grid.Grid{Pr: 4, Pc: 1}, costmodel.UniformAssignment(spec, costmodel.Domain)},
		{"integrated 2x2", grid.Grid{Pr: 2, Pc: 2}, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model)},
	}

	fmt.Printf("Training %s for %d steps, B=%d, on 4 simulated ranks.\n\n", spec.Name, cfg.Steps, cfg.BatchSize)
	fmt.Printf("%-12s", "step")
	fmt.Printf("%16s", "serial")
	results := make([]parallel.Result, len(engines))
	for i, e := range engines {
		var err error
		results[i], err = parallel.RunFullIntegrated(mpi.NewWorld(e.g.P(), mach), cfg, ds, e.g, e.assign)
		must(err)
		fmt.Printf("%16s", e.name)
	}
	fmt.Println()
	for s := 0; s < cfg.Steps; s++ {
		fmt.Printf("%-12d%16.8f", s, serial.Losses[s])
		for i := range engines {
			fmt.Printf("%16.8f", results[i].Losses[s])
		}
		fmt.Println()
	}

	fmt.Println("\nData moved (identical math, very different traffic):")
	for i, e := range engines {
		var words int64
		for _, st := range results[i].Stats {
			words += st.WordsSent
		}
		fmt.Printf("  %-14s %9d words on the wire over %d steps\n", e.name, words, cfg.Steps)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
