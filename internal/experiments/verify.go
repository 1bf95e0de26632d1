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
// Each engine is a (grid, assignment) pair of parallel.RunFullIntegrated.
func VerifyEngines(steps, batch int, seed int64, mach machine.Machine) ([]EngineReport, error) {
	type workload struct {
		cfg    parallel.Config
		ds     *data.Dataset
		oracle parallel.Result
	}
	newWorkload := func(spec *nn.Network, seed int64) (*workload, error) {
		w := &workload{
			cfg: parallel.Config{Spec: spec, Seed: seed + 1, LR: 0.05, Steps: steps, BatchSize: batch},
			ds:  data.Synthetic(4*batch, spec.Input, spec.Output().C, seed),
		}
		var err error
		w.oracle, err = parallel.RunSerial(w.cfg, w.ds)
		return w, err
	}
	spec := ReferenceConvNet()
	conv, err := newWorkload(spec, seed)
	if err != nil {
		return nil, err
	}
	// The 1.5D algorithm alone (Fig. 5 / Eq. 8) is RunFullIntegrated on a
	// network without convolutions; give it an MLP workload with its own
	// serial oracle.
	mlp, err := newWorkload(nn.MLP("verify-mlp", 32, 16, 8, 8), seed+2)
	if err != nil {
		return nil, err
	}

	domain := costmodel.UniformAssignment(spec, costmodel.Domain)
	integrated := costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model)
	runs := []struct {
		name, figure string
		w            *workload
		g            grid.Grid
		assign       costmodel.Assignment
	}{
		{"batch", "Fig. 2 / Eq. 4", conv, grid.Grid{Pr: 1, Pc: 4}, nil},
		{"model", "Fig. 1 / Eq. 3", conv, grid.Grid{Pr: 4, Pc: 1}, nil},
		{"domain", "Fig. 3 / Eq. 7", conv, grid.Grid{Pr: 4, Pc: 1}, domain},
		{"1.5D-fc", "Fig. 5 / Eq. 8", mlp, grid.Grid{Pr: 2, Pc: 2}, nil},
		{"integrated", "Eq. 9", conv, grid.Grid{Pr: 2, Pc: 2}, integrated},
		{"full-integrated", "Eq. 9", conv, grid.Grid{Pr: 4, Pc: 2}, integrated},
	}
	var out []EngineReport
	for _, r := range runs {
		res, err := parallel.RunFullIntegrated(mpi.NewWorld(r.g.P(), mach), r.w.cfg, r.w.ds, r.g, r.assign)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		rep := EngineReport{Name: r.name, Figure: r.figure, P: r.g.P(), Grid: r.g.String()}
		rep.MaxWeightDev = maxDev(res.Weights, r.w.oracle.Weights)
		for i := range res.Losses {
			if d := math.Abs(res.Losses[i] - r.w.oracle.Losses[i]); d > rep.MaxLossDev {
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
