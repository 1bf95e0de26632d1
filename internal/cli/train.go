package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dnnparallel"
	"dnnparallel/internal/checkpoint"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/experiments"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
)

// TrainMain is the dnntrain entry point: the executable simulated
// cluster, and — with `-objective tta` (or a scenario whose objective is
// "time-to-accuracy") — a training-campaign planner that searches the
// global batch size for the lowest modeled wall clock to the accuracy
// target. In engine mode a -config scenario supplies the batch size,
// process count, grid, and machine (its flat α–β view); the
// engine-specific flags (strategy, steps, lr, seed, …) stay flags
// because they describe the training run, not the parallelism question a
// Scenario poses.
func TrainMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnntrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "", "scenario JSON file; supplies B, P, grid, and the machine (flags override)")
	strategy := fs.String("strategy", "batch", "serial|batch|model|domain|integrated|full")
	p := fs.Int("P", 4, "process count (batch/model/domain)")
	pr := fs.Int("pr", 2, "grid rows Pr (integrated/full)")
	pc := fs.Int("pc", 2, "grid cols Pc (integrated/full)")
	steps := fs.Int("steps", 10, "SGD steps")
	batch := fs.Int("B", 16, "global minibatch size")
	lr := fs.Float64("lr", 0.05, "learning rate")
	seed := fs.Int64("seed", 42, "random seed")
	verify := fs.Bool("verify", false, "run every engine configuration and compare it to serial SGD and to the communication model")
	momentum := fs.Float64("momentum", 0, "momentum coefficient (0 = plain SGD)")
	saveTo := fs.String("save", "", "write a weight checkpoint to this path after training")
	objectiveName := fs.String("objective", "", `planning objective: "iteration" (default: run the simulated training engines) or "time-to-accuracy"/"tta" — plan a training campaign instead, searching the global batch size for the lowest modeled time to the accuracy target`)
	curveSpec := fs.String("curve", "", `campaign steps-to-target curve: a preset name (alexnet|vgg16|onebyone|resnet50) or explicit "S1,Bc,e" parameters (with -objective tta)`)
	targetSteps := fs.Float64("target-steps", 0, "campaign steps-to-target at B=1, overriding the curve's StepsAtB1 (with -objective tta)")
	batches := fs.String("batches", "", "comma-separated candidate global batch sizes for the campaign (default: the scenario's batch_sizes, else a power-of-two sweep around B)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := visited(fs)

	base, err := loadBase(*config)
	if err != nil {
		fmt.Fprintln(stderr, "dnntrain:", err)
		return 2
	}
	objective := base.Objective
	if set["objective"] {
		o, err := planner.ParseObjective(*objectiveName)
		if err != nil {
			fmt.Fprintln(stderr, "dnntrain:", err)
			return 2
		}
		objective = o
	}
	if objective == planner.TimeToAccuracy {
		base.Objective = objective
		return trainCampaign(base, set, campaignFlags{
			batch: *batch, procs: *p,
			curve: *curveSpec, targetSteps: *targetSteps, batches: *batches,
		}, stdout, stderr)
	}
	if set["curve"] || set["target-steps"] || set["batches"] {
		fmt.Fprintln(stderr, "dnntrain: -curve/-target-steps/-batches describe the campaign search; add -objective tta (the iteration objective runs the training engines)")
		return 2
	}

	mach := experiments.Default().Machine
	g := grid.Grid{Pr: *pr, Pc: *pc}
	if *config != "" {
		sc := base
		r, err := sc.Resolve()
		if err != nil {
			fmt.Fprintln(stderr, "dnntrain:", err)
			return 2
		}
		// The executable engines see the flat α–β view (the topology's
		// inter-node level when a two-level machine is specified).
		mach = r.Options.Machine
		if !set["B"] {
			*batch = r.Batch
		}
		if !set["P"] {
			*p = r.Procs
		}
		if r.Grid != nil {
			if !set["pr"] {
				g.Pr = r.Grid.Pr
			}
			if !set["pc"] {
				g.Pc = r.Grid.Pc
			}
		}
	}
	if set["pr"] {
		g.Pr = *pr
	}
	if set["pc"] {
		g.Pc = *pc
	}

	if *verify {
		reps, err := experiments.VerifyEngines(*steps, *batch, *seed, mach)
		if err != nil {
			fmt.Fprintln(stderr, "dnntrain:", err)
			return 1
		}
		fmt.Fprint(stdout, experiments.RenderEngineReports(reps))
		return 0
	}

	spec := experiments.ReferenceConvNet()
	ds := data.Synthetic(4*(*batch), spec.Input, spec.Output().C, *seed)
	cfg := parallel.Config{Spec: spec, Seed: *seed + 1, LR: *lr, Steps: *steps, BatchSize: *batch}
	if *momentum > 0 {
		mu, eta := *momentum, *lr
		cfg.NewOptimizer = func() nn.Optimizer { return &nn.Momentum{LR: eta, Mu: mu} }
	}

	var res parallel.Result
	label := *strategy
	switch *strategy {
	case "serial":
		res, err = parallel.RunSerial(cfg, ds)
	case "batch":
		res, err = parallel.RunFullIntegrated(mpi.NewWorld(*p, mach), cfg, ds, grid.Grid{Pr: 1, Pc: *p}, nil)
		label = fmt.Sprintf("batch (P=%d)", *p)
	case "model":
		res, err = parallel.RunFullIntegrated(mpi.NewWorld(*p, mach), cfg, ds, grid.Grid{Pr: *p, Pc: 1}, nil)
		label = fmt.Sprintf("model (P=%d)", *p)
	case "domain":
		res, err = parallel.RunFullIntegrated(mpi.NewWorld(*p, mach), cfg, ds, grid.Grid{Pr: *p, Pc: 1}, costmodel.UniformAssignment(spec, costmodel.Domain))
		label = fmt.Sprintf("domain (P=%d)", *p)
	case "integrated", "full":
		res, err = parallel.RunFullIntegrated(mpi.NewWorld(g.P(), mach), cfg, ds, g, costmodel.ConvAssignment(spec, costmodel.Domain, costmodel.Model))
		label = fmt.Sprintf("integrated (grid %v)", g)
	default:
		fmt.Fprintf(stderr, "dnntrain: unknown strategy %q\n", *strategy)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "dnntrain:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s on %s: B=%d, %d steps, lr=%g\n\n", label, spec.Name, *batch, *steps, *lr)
	for i, l := range res.Losses {
		fmt.Fprintf(stdout, "  step %2d  loss %.6f\n", i, l)
	}
	if len(res.Stats) > 0 {
		var words, msgs int64
		var comm float64
		for _, s := range res.Stats {
			words += s.WordsSent
			msgs += s.Messages
			if s.CommTime > comm {
				comm = s.CommTime
			}
		}
		fmt.Fprintf(stdout, "\nSimulated cluster: %d ranks, %d messages, %d words on the wire,\n", len(res.Stats), msgs, words)
		fmt.Fprintf(stdout, "max per-rank communication time %.3gs (virtual, α=%.0gs 1/β=%.0f GB/s)\n",
			comm, mach.Alpha, mach.BandwidthBytes()/1e9)
	}
	if *saveTo != "" {
		snap := &checkpoint.Snapshot{Network: spec.Name, Step: *steps, Seed: *seed, Weights: res.Weights}
		if err := checkpoint.SaveFile(*saveTo, snap); err != nil {
			fmt.Fprintln(stderr, "dnntrain:", err)
			return 1
		}
		fmt.Fprintf(stdout, "checkpoint written to %s (step %d)\n", *saveTo, *steps)
	}
	return 0
}

// campaignFlags bundles dnntrain's campaign-mode flag values.
type campaignFlags struct {
	batch, procs int
	curve        string
	targetSteps  float64
	batches      string
}

// parseCurveFlag parses the -curve value: a convergence preset name, or
// an explicit "S1,Bc,e" parameter triple.
func parseCurveFlag(s string) (dnnparallel.ConvergenceSpec, error) {
	s = strings.TrimSpace(s)
	if !strings.Contains(s, ",") {
		return dnnparallel.ConvergenceSpec{Preset: s}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return dnnparallel.ConvergenceSpec{}, fmt.Errorf(`bad -curve %q: want a preset name or "S1,Bc,e"`, s)
	}
	var v [3]float64
	for i, part := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return dnnparallel.ConvergenceSpec{}, fmt.Errorf("bad -curve parameter %q: %v", part, err)
		}
		v[i] = x
	}
	return dnnparallel.ConvergenceSpec{StepsAtB1: v[0], CriticalB: v[1], Exponent: v[2]}, nil
}

// trainCampaign is dnntrain's time-to-accuracy mode: a per-batch-size
// planning sweep. Each candidate B gets its own full (grid × placement ×
// partition × micro-batch) search at that batch size, so every table row
// is that B's true best plan — steps-to-target × s/iter → hours — and
// the winner row is the campaign the planner would pick.
func trainCampaign(sc dnnparallel.Scenario, set map[string]bool, f campaignFlags, stdout, stderr io.Writer) int {
	if set["B"] {
		sc.Batch = f.batch
	}
	if set["P"] {
		sc.Procs = f.procs
	}
	if set["curve"] {
		c, err := parseCurveFlag(f.curve)
		if err != nil {
			fmt.Fprintln(stderr, "dnntrain:", err)
			return 2
		}
		sc.Convergence = &c
	}
	if set["target-steps"] {
		c := dnnparallel.ConvergenceSpec{}
		if sc.Convergence != nil {
			c = *sc.Convergence
		}
		c.StepsAtB1 = f.targetSteps
		sc.Convergence = &c
	}
	if set["batches"] {
		bs, err := parseIntList(f.batches, "batch size")
		if err != nil {
			fmt.Fprintln(stderr, "dnntrain:", err)
			return 2
		}
		sc.BatchSizes = bs
	}
	n := sc.Normalize()
	if len(n.BatchSizes) == 0 && n.Batch > 0 {
		// No candidate list anywhere: sweep powers of two around the
		// scenario's own batch, B/8 … 8B.
		for b := max(1, n.Batch/8); b <= 8*n.Batch; b *= 2 {
			n.BatchSizes = append(n.BatchSizes, b)
		}
		n = n.Normalize()
	}
	r, err := n.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, "dnntrain:", err)
		return 2
	}
	curve := r.Options.Curve
	// The candidate list the joint search would sweep: batch_sizes ∪ {B}.
	cands := r.Options.Batches(n.Batch)

	type row struct {
		b   int
		res *dnnparallel.PlanResult
	}
	rows := make([]row, 0, len(cands))
	network, machineDesc := n.Network, ""
	for _, b := range cands {
		one := n
		one.Batch = b
		one.BatchSizes = nil
		res, err := dnnparallel.Plan(one)
		if err != nil {
			var ie *dnnparallel.InfeasibleError
			if errors.As(err, &ie) {
				rows = append(rows, row{b: b})
				continue
			}
			fmt.Fprintln(stderr, "dnntrain:", err)
			return exitCode(err)
		}
		network, machineDesc = res.Network, res.Machine
		rows = append(rows, row{b: b, res: res})
	}

	bestIdx := -1
	for i, r := range rows {
		if r.res == nil {
			continue
		}
		if bestIdx < 0 || r.res.Best.TimeToAccuracySeconds < rows[bestIdx].res.Best.TimeToAccuracySeconds {
			bestIdx = i
		}
	}

	fmt.Fprintf(stdout, "Training campaign: %s, P=%d, objective time-to-accuracy\n", network, n.Procs)
	if machineDesc != "" {
		fmt.Fprintf(stdout, "machine: %s\n", machineDesc)
	}
	fmt.Fprintf(stdout, "curve: S(1)=%.4g steps to target, critical batch %.4g, exponent %.4g (floor %.4g steps)\n\n",
		curve.StepsAtB1, curve.CriticalB, curve.Exponent, curve.StepFloor())

	var trows [][]string
	for i, r := range rows {
		steps := fmt.Sprintf("%.4g", curve.Steps(r.b))
		if r.res == nil {
			trows = append(trows, []string{
				fmt.Sprintf("%d", r.b), steps, "-", "-", "-", "-", "infeasible",
			})
			continue
		}
		best := r.res.Best
		note := ""
		if i == bestIdx {
			note = "← best"
		}
		trows = append(trows, []string{
			fmt.Sprintf("%d", r.b), steps, best.Grid,
			report.F(best.IterSeconds), report.F(best.TimeToAccuracySeconds),
			fmt.Sprintf("%.4g", best.TimeToAccuracySeconds/3600), note,
		})
	}
	fmt.Fprint(stdout, report.Table(
		[]string{"B", "steps", "grid", "s/iter", "s to target", "hours", ""}, trows))

	if bestIdx < 0 {
		fmt.Fprintf(stdout, "\nNo feasible campaign: every candidate batch size is infeasible at P=%d.\n", n.Procs)
		return 1
	}
	w := rows[bestIdx].res.Best
	fmt.Fprintf(stdout, "\nWinner: B=%d on grid %s — %.4g steps × %ss/iter = %ss ≈ %.3g hours to target\n",
		rows[bestIdx].b, w.Grid, w.StepsToTarget, report.F(w.IterSeconds),
		report.F(w.TimeToAccuracySeconds), w.TimeToAccuracySeconds/3600)
	return 0
}
