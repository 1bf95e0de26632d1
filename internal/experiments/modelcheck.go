package experiments

import (
	"fmt"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/report"
)

// ModelCheckRow compares one configuration's measured per-step virtual
// communication time with its closed-form prediction.
type ModelCheckRow struct {
	Engine    string
	Equation  string
	Grid      string
	Measured  float64 // seconds/step, steady state
	Predicted float64 // seconds/step from costmodel
	RelError  float64
}

// modelCheckRows are ModelCheck's configurations. Each runs as
// parallel.RunFullIntegrated and is priced by costmodel.Env.FullIntegrated
// on its grid with every layer Model (the nil assignment).
var modelCheckRows = []struct {
	engine, equation string
	g                grid.Grid
}{
	{"batch", "Eq. 4", grid.Grid{Pr: 1, Pc: 4}},
	{"model", "Eq. 3", grid.Grid{Pr: 4, Pc: 1}},
	{"integrated-1.5D", "Eq. 8", grid.Grid{Pr: 2, Pc: 2}},
	{"integrated-1.5D", "Eq. 8", grid.Grid{Pr: 4, Pc: 2}},
	{"integrated-1.5D", "Eq. 8", grid.Grid{Pr: 2, Pc: 4}},
}

// ModelCheck runs each configuration on the simulated cluster and compares
// the *measured* per-step virtual communication time against the
// closed-form prediction (Eqs. 3, 4, 8) on the same grid, for a small MLP.
// This is the strongest internal-consistency artifact in the repository:
// the same formulas the figures are built from are re-derived from actual
// message traffic.
//
// The machine has α = 0, which isolates the bandwidth (volume) terms, the
// content of the paper's analysis; they agree to within the few words of
// the scalar loss reduction. At α > 0 that per-step loss all-reduce over
// the row group is also the whole latency residual: the engine sends
// every message the formulas charge, per layer.
func ModelCheck() ([]ModelCheckRow, error) {
	return modelCheck(machine.Machine{Name: "bw-only", Alpha: 0, Beta: 1e-9, PeakFlops: 1e12})
}

// modelCheck is ModelCheck on machine m.
func modelCheck(m machine.Machine) ([]ModelCheckRow, error) {
	spec := nn.MLP("check", 64, 32, 16, 8)
	ds := data.Synthetic(64, spec.Input, 8, 301)
	const B = 16

	var rows []ModelCheckRow
	for _, r := range modelCheckRows {
		// Steady state: difference runs of 3 and 6 steps, cancelling the
		// final weight assembly.
		var comm [2]float64
		for i, steps := range []int{3, 6} {
			cfg := parallel.Config{Spec: spec, Seed: 5, LR: 0.01, Steps: steps, BatchSize: B}
			res, err := parallel.RunFullIntegrated(mpi.NewWorld(r.g.P(), m), cfg, ds, r.g, nil)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", r.engine, r.g, err)
			}
			for _, s := range res.Stats {
				comm[i] = max(comm[i], s.CommTime)
			}
		}
		measured := (comm[1] - comm[0]) / 3
		predicted := costmodel.FlatEnv(m).FullIntegrated(spec, B, r.g, nil).TotalSeconds()
		rel := 0.0
		if predicted > 0 {
			rel = (measured - predicted) / predicted
		}
		rows = append(rows, ModelCheckRow{
			Engine: r.engine, Equation: r.equation, Grid: r.g.String(),
			Measured: measured, Predicted: predicted, RelError: rel,
		})
	}
	return rows, nil
}

// RenderModelCheck prints the comparison.
func RenderModelCheck(rows []ModelCheckRow) string {
	tr := make([][]string, len(rows))
	for i, r := range rows {
		tr[i] = []string{
			r.Engine, r.Equation, r.Grid,
			fmt.Sprintf("%.4g", r.Measured),
			fmt.Sprintf("%.4g", r.Predicted),
			fmt.Sprintf("%+.2f%%", r.RelError*100),
		}
	}
	return "Model check — measured engine communication vs closed-form prediction\n" +
		"(α = 0 machine; bandwidth terms only — the content of Eqs. 3/4/8)\n" +
		report.Table([]string{"Engine", "Formula", "Grid", "measured s/step", "predicted s/step", "error"}, tr)
}
