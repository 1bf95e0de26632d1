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

// ModelCheck runs each executable engine on the simulated cluster and
// compares the *measured* per-step virtual communication time against the
// corresponding closed-form prediction (Eqs. 3, 4, 8). This is the
// strongest internal-consistency artifact in the repository: the same
// formulas the figures are built from are re-derived from actual message
// traffic.
//
// The machine has α = 0 because the engines batch gradients into one
// flattened all-reduce while the formulas charge one per layer; bandwidth
// (volume) terms — the content of the paper's analysis — must then agree
// to within the few words of the scalar loss reduction.
type ModelCheckRow struct {
	Engine    string
	Equation  string
	Grid      string
	Measured  float64 // seconds/step, steady state
	Predicted float64 // seconds/step from costmodel
	RelError  float64
}

// ModelCheck executes the comparison on a small MLP.
func ModelCheck() ([]ModelCheckRow, error) {
	spec := nn.MLP("check", 64, 32, 16, 8)
	ds := data.Synthetic(64, spec.Input, 8, 301)
	m := machine.Machine{Name: "bw-only", Alpha: 0, Beta: 1e-9, PeakFlops: 1e12}
	const B = 16

	steady := func(run func(steps int) (parallel.Result, error)) (float64, error) {
		comm := func(steps int) (float64, error) {
			res, err := run(steps)
			if err != nil {
				return 0, err
			}
			var worst float64
			for _, s := range res.Stats {
				if s.CommTime > worst {
					worst = s.CommTime
				}
			}
			return worst, nil
		}
		c1, err := comm(3)
		if err != nil {
			return 0, err
		}
		c2, err := comm(6)
		if err != nil {
			return 0, err
		}
		return (c2 - c1) / 3, nil
	}

	var rows []ModelCheckRow
	add := func(name, eq, gridStr string, measured, predicted float64) {
		rel := 0.0
		if predicted > 0 {
			rel = (measured - predicted) / predicted
		}
		rows = append(rows, ModelCheckRow{
			Engine: name, Equation: eq, Grid: gridStr,
			Measured: measured, Predicted: predicted, RelError: rel,
		})
	}

	mk := func(steps int) parallel.Config {
		return parallel.Config{Spec: spec, Seed: 5, LR: 0.01, Steps: steps, BatchSize: B}
	}

	meas, err := steady(func(s int) (parallel.Result, error) {
		return parallel.RunBatch(mpi.NewWorld(4, m), mk(s), ds)
	})
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	add("batch", "Eq. 4", "1x4", meas, costmodel.FlatEnv(m).PureBatch(spec, B, 4).TotalSeconds())

	meas, err = steady(func(s int) (parallel.Result, error) {
		return parallel.RunFullIntegrated(mpi.NewWorld(4, m), mk(s), ds, grid.Grid{Pr: 4, Pc: 1}, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	add("model", "Eq. 3", "4x1", meas, costmodel.FlatEnv(m).PureModel(spec, B, 4).TotalSeconds())

	for _, g := range []grid.Grid{{Pr: 2, Pc: 2}, {Pr: 4, Pc: 2}, {Pr: 2, Pc: 4}} {
		g := g
		meas, err = steady(func(s int) (parallel.Result, error) {
			return parallel.RunFullIntegrated(mpi.NewWorld(g.P(), m), mk(s), ds, g, nil)
		})
		if err != nil {
			return nil, fmt.Errorf("1.5D %v: %w", g, err)
		}
		add("integrated-1.5D", "Eq. 8", g.String(), meas,
			costmodel.FlatEnv(m).Integrated(spec, B, g).TotalSeconds())
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
