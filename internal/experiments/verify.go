package experiments

import (
	"fmt"
	"math"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/report"
	"dnnparallel/internal/tensor"
)

// ReferenceConvNet is a small conv+FC network satisfying every engine's
// structural constraints (slab-splittable convs, aligned pools, divisible
// widths) — the workload of the executable verification experiment that
// realizes Figs. 1, 2, 3 and 5 as running code.
func ReferenceConvNet() *nn.Network {
	n := &nn.Network{
		Name:  "RefConvNet",
		Input: nn.Shape{H: 16, W: 12, C: 3},
		Layers: []nn.Layer{
			{Kind: nn.Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.Conv, Name: "conv2", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: nn.Pool, Name: "pool1", KH: 2, KW: 2, Stride: 2},
			{Kind: nn.FC, Name: "fc1", OutN: 32},
			{Kind: nn.FC, Name: "fc2", OutN: 8},
		},
	}
	if err := n.Infer(); err != nil {
		panic(err)
	}
	return n
}

// EngineReport summarizes one engine run against the serial oracle.
type EngineReport struct {
	Name           string
	Figure         string // the paper figure the engine realizes
	P              int
	Grid           string
	MaxWeightDev   float64
	MaxLossDev     float64
	FinalLoss      float64
	WordsOnWire    int64
	SimCommSeconds float64
}

// VerifyEngines trains ReferenceConvNet with every engine and measures the
// deviation from serial SGD plus the simulated communication volume/time.
func VerifyEngines(steps, batch int, seed int64, mach machine.Machine) ([]EngineReport, error) {
	spec := ReferenceConvNet()
	ds := data.Synthetic(4*batch, spec.Input, spec.Output().C, seed)
	cfg := parallel.Config{Spec: spec, Seed: seed + 1, LR: 0.05, Steps: steps, BatchSize: batch}
	oracle, err := parallel.RunSerial(cfg, ds)
	if err != nil {
		return nil, err
	}

	// The 1.5D algorithm alone (Fig. 5 / Eq. 8) is RunFullIntegrated on a
	// network without convolutions; give it an MLP workload with its own
	// serial oracle.
	mlp := nn.MLP("verify-mlp", 32, 16, 8, 8)
	mlpDS := data.Synthetic(4*batch, mlp.Input, mlp.Output().C, seed+2)
	mlpCfg := parallel.Config{Spec: mlp, Seed: seed + 3, LR: 0.05, Steps: steps, BatchSize: batch}
	mlpOracle, err := parallel.RunSerial(mlpCfg, mlpDS)
	if err != nil {
		return nil, err
	}

	domain := costmodel.UniformAssignment(spec, costmodel.Domain)
	integrated := costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model)
	type run struct {
		name, figure, gridStr string
		p                     int
		oracle                *parallel.Result
		exec                  func(w *mpi.World) (parallel.Result, error)
	}
	runs := []run{
		{"batch", "Fig. 2 / Eq. 4", "1x4", 4, &oracle,
			func(w *mpi.World) (parallel.Result, error) { return parallel.RunBatch(w, cfg, ds) }},
		{"model", "Fig. 1 / Eq. 3", "4x1", 4, &oracle,
			func(w *mpi.World) (parallel.Result, error) {
				return parallel.RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 4, Pc: 1}, nil)
			}},
		{"domain", "Fig. 3 / Eq. 7", "4x1", 4, &oracle,
			func(w *mpi.World) (parallel.Result, error) {
				return parallel.RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 4, Pc: 1}, domain)
			}},
		{"1.5D-fc", "Fig. 5 / Eq. 8", "2x2", 4, &mlpOracle,
			func(w *mpi.World) (parallel.Result, error) {
				return parallel.RunFullIntegrated(w, mlpCfg, mlpDS, grid.Grid{Pr: 2, Pc: 2}, nil)
			}},
		{"integrated", "Eq. 9", "2x2", 4, &oracle,
			func(w *mpi.World) (parallel.Result, error) {
				return parallel.RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 2, Pc: 2}, integrated)
			}},
		{"full-integrated", "Eq. 9", "4x2", 8, &oracle,
			func(w *mpi.World) (parallel.Result, error) {
				return parallel.RunFullIntegrated(w, cfg, ds, grid.Grid{Pr: 4, Pc: 2}, integrated)
			}},
	}
	var out []EngineReport
	for _, r := range runs {
		w := mpi.NewWorld(r.p, mach)
		res, err := r.exec(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		rep := EngineReport{Name: r.name, Figure: r.figure, P: r.p, Grid: r.gridStr}
		rep.MaxWeightDev = maxDev(res.Weights, r.oracle.Weights)
		for i := range res.Losses {
			if d := math.Abs(res.Losses[i] - r.oracle.Losses[i]); d > rep.MaxLossDev {
				rep.MaxLossDev = d
			}
		}
		rep.FinalLoss = res.Losses[len(res.Losses)-1]
		for _, s := range res.Stats {
			rep.WordsOnWire += s.WordsSent
			if s.CommTime > rep.SimCommSeconds {
				rep.SimCommSeconds = s.CommTime
			}
		}
		out = append(out, rep)
	}
	return out, nil
}

func maxDev(a, b []*tensor.Matrix) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := a[i].MaxAbsDiff(b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// RenderEngineReports prints the verification table.
func RenderEngineReports(reps []EngineReport) string {
	rows := make([][]string, len(reps))
	for i, r := range reps {
		rows[i] = []string{
			r.Name, r.Figure, fmt.Sprintf("%d", r.P), r.Grid,
			fmt.Sprintf("%.2e", r.MaxWeightDev),
			fmt.Sprintf("%.2e", r.MaxLossDev),
			report.Fs(r.FinalLoss, 4),
			fmt.Sprintf("%d", r.WordsOnWire),
			fmt.Sprintf("%.3g", r.SimCommSeconds),
		}
	}
	return "Executable-engine verification: every strategy reproduces serial SGD\n" +
		report.Table([]string{"Engine", "Realizes", "P", "Grid", "max |Δw|", "max |Δloss|", "final loss", "words sent", "sim comm (s)"}, rows)
}
