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
	"dnnparallel/internal/stage"
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

// BandwidthOnly is an α = 0 machine: on it the engine check's residual
// is the volume (β) terms alone, the content of the paper's analysis.
var BandwidthOnly = machine.Machine{Name: "bw-only", Alpha: 0, Beta: 1e-9, PeakFlops: 1e12}

// EngineReport is one executed configuration of VerifyEngines: its
// deviation from serial SGD and its steady-state communication against
// the closed-form prediction.
type EngineReport struct {
	Name    string
	Figure  string // the paper figure and equation the configuration realizes
	Spec    *nn.Network
	Grid    grid.Grid
	Assign  costmodel.Assignment
	Batch   int
	Machine machine.Machine

	MaxWeightDev float64 // against RunSerial, over the k- and 2k-step runs
	MaxLossDev   float64
	FinalLoss    float64 // of the k-step run
	WordsOnWire  int64   // of the k-step run, summed over ranks

	// Measured is the slowest rank's communication seconds per step in
	// the steady state: the 2k-step run's minus the k-step run's, over
	// k, which cancels the final weight assembly. Predicted is
	// Env.FullIntegrated plus Env.RedistributionSeconds on the same
	// grid, assignment and machine.
	Measured, Predicted float64
}

// VerifyEngines runs every (grid, assignment) pair of
// parallel.RunFullIntegrated that realizes one of Eqs. 3, 4, 7, 8 and 9
// for steps and 2·steps steps on mach, and reports each against serial
// SGD (RunSerial on the same workload) and against the closed-form
// communication model.
func VerifyEngines(steps, batch int, seed int64, mach machine.Machine) ([]EngineReport, error) {
	type workload struct {
		spec   *nn.Network
		seed   int64
		ds     *data.Dataset
		oracle [2]parallel.Result // serial SGD for steps and 2·steps
	}
	config := func(w *workload, steps int) parallel.Config {
		return parallel.Config{Spec: w.spec, Seed: w.seed + 1, LR: 0.05, Steps: steps, BatchSize: batch}
	}
	newWorkload := func(spec *nn.Network, seed int64) (*workload, error) {
		w := &workload{spec: spec, seed: seed, ds: data.Synthetic(4*batch, spec.Input, spec.Output().C, seed)}
		for i := range w.oracle {
			var err error
			if w.oracle[i], err = parallel.RunSerial(config(w, (i+1)*steps), w.ds); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
	conv, err := newWorkload(ReferenceConvNet(), seed)
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

	domain := costmodel.UniformAssignment(conv.spec, costmodel.Domain)
	integrated := costmodel.ConvAssignment(conv.spec, costmodel.Domain, costmodel.Model)
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
		{"1.5D-fc", "Fig. 5 / Eq. 8", mlp, grid.Grid{Pr: 4, Pc: 2}, nil},
		{"1.5D-fc", "Fig. 5 / Eq. 8", mlp, grid.Grid{Pr: 2, Pc: 4}, nil},
		{"integrated", "Eq. 9", conv, grid.Grid{Pr: 2, Pc: 2}, integrated},
		{"full-integrated", "Eq. 9", conv, grid.Grid{Pr: 4, Pc: 2}, integrated},
	}
	env := costmodel.FlatEnv(mach)
	out := make([]EngineReport, len(runs))
	for i, r := range runs {
		rep := EngineReport{Name: r.name, Figure: r.figure, Spec: r.w.spec, Grid: r.g, Assign: r.assign, Batch: batch, Machine: mach}
		var comm [2]float64
		for j, oracle := range r.w.oracle {
			res, err := parallel.RunFullIntegrated(mpi.NewWorld(r.g.P(), mach), config(r.w, (j+1)*steps), r.w.ds, r.g, r.assign)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", r.name, r.g, err)
			}
			rep.MaxWeightDev = max(rep.MaxWeightDev, maxDev(res.Weights, oracle.Weights))
			for s := range res.Losses {
				rep.MaxLossDev = max(rep.MaxLossDev, math.Abs(res.Losses[s]-oracle.Losses[s]))
			}
			for _, st := range res.Stats {
				comm[j] = max(comm[j], st.CommTime)
			}
			if j == 0 {
				rep.FinalLoss = res.Losses[len(res.Losses)-1]
				for _, st := range res.Stats {
					rep.WordsOnWire += st.WordsSent
				}
			}
		}
		rep.Measured = (comm[1] - comm[0]) / float64(steps)
		rep.Predicted = env.FullIntegrated(r.w.spec, batch, r.g, r.assign).TotalSeconds() +
			env.RedistributionSeconds(r.w.spec, batch, r.g, r.assign, stage.Partition{})
		out[i] = rep
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

// RenderEngineReports prints the engine check.
func RenderEngineReports(reps []EngineReport) string {
	rows := make([][]string, len(reps))
	for i, r := range reps {
		rows[i] = []string{
			r.Name, r.Figure, r.Grid.String(),
			fmt.Sprintf("%.2e", r.MaxWeightDev),
			fmt.Sprintf("%.2e", r.MaxLossDev),
			report.Fs(r.FinalLoss, 4),
			fmt.Sprintf("%d", r.WordsOnWire),
			fmt.Sprintf("%.4g", r.Measured),
			fmt.Sprintf("%.4g", r.Predicted),
			fmt.Sprintf("%+.2f%%", (r.Measured-r.Predicted)/r.Predicted*100),
		}
	}
	var m machine.Machine
	if len(reps) > 0 {
		m = reps[0].Machine
	}
	return "Engine check: every configuration reproduces serial SGD, and its\n" +
		"steady-state communication is the closed-form model's (Eqs. 3–9, plus Eq. 6 relayouts)\n" +
		fmt.Sprintf("(%s machine: α = %.3g s, β = %.3g s/word; residual = measured − predicted)\n", m.Name, m.Alpha, m.Beta) +
		report.Table([]string{"Engine", "Realizes", "Grid", "max |Δw|", "max |Δloss|", "final loss",
			"words sent", "measured s/step", "predicted s/step", "residual"}, rows) +
		"The domain row runs its FC layers replicated: their priced ∆W all-reduce and\n" +
		"whole-panel halos are never sent. The rest of each residual is the per-step\n" +
		"loss all-reduce over the row group and, at α > 0 and Pr ≥ 3, one α per halo\n" +
		"exchange (an interior slab sends to both neighbours).\n"
}
