package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnnparallel"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/experiments"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
	"dnnparallel/internal/timeline"
)

// SimMain is the dnnsim entry point: it regenerates the paper's tables
// and figures. A -config scenario seeds the shared setup (network,
// machine or topology, batch, dataset, overlap policy, micro-batch
// sweep); flags override the scenario field-for-field, exactly as in
// dnnplan.
func SimMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnnsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "", "scenario JSON file (see examples/scenarios); flags override its fields")
	exp := fs.String("exp", "all", "experiment: table1|fig4|eq5|fig6|fig7|fig8|fig9|fig10|timeline|pipeline|verify|sensitivity|memory|onebyone|all")
	csv := fs.Bool("csv", false, "emit CSV instead of text (scaling experiments)")
	batch := fs.Int("B", 2048, "global minibatch size for strong-scaling experiments")
	beyondB := fs.Int("B10", 512, "batch size for the beyond-batch experiment (fig10)")
	ps := fs.String("P", "", "comma-separated process counts (defaults per experiment)")
	policy := fs.String("policy", "backprop", "overlap policy for -exp timeline/pipeline: none|backprop|full")
	micro := fs.String("micro", "1,2,4,8,16,32", "comma-separated micro-batch counts for -exp pipeline")
	schedule := fs.String("schedule", "gpipe", "pipeline schedule shape for -exp pipeline: gpipe|1f1b")
	stages := fs.Int("stages", 0, "pipeline stage count S for -trace; > 1 partitions the network into S contiguous stages, each on its own grid (the pinned grid is per-stage)")
	partition := fs.String("partition", "", `pipeline layer partition for -trace: "auto" or comma-separated cut positions into the weighted-layer list`)
	trace := fs.String("trace", "", "write the scenario's simulated schedule as Chrome trace-event JSON to this file (needs a pinned grid; open in https://ui.perfetto.dev) and exit")
	calibrate := fs.Bool("calibrate", false, "measure THIS host's GEMM throughput and use it as the compute model (the paper's empirical methodology)")
	ppn := fs.Int("ppn", 0, "ranks per node; > 0 prices the planner-backed experiments against the two-level Cori topology")
	nodes := fs.Int("nodes", 0, "node count (with -ppn, defaults the process counts to nodes × ppn)")
	levels := fs.String("levels", "", "N-level hierarchical topology as name:alpha:bw[:group],… innermost first (e.g. node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6); replaces the -nodes/-ppn sugar")
	workers := fs.Int("workers", 0, "candidate-evaluation goroutines for planner-backed experiments (0 = GOMAXPROCS); never changes the result, only wall time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := visited(fs)

	sc, err := loadBase(*config)
	if err != nil {
		fmt.Fprintln(stderr, "dnnsim:", err)
		return 2
	}
	if set["B"] || *config == "" {
		sc.Batch = *batch
	}
	var psList []int
	if *ps != "" {
		psList, err = parseIntList(*ps, "process count")
		if err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 2
		}
	}
	if err := applyTopologyFlags(&sc, set, topoFlags{ppn: *ppn, nodes: *nodes, levels: *levels, explicitP: set["P"]}); err != nil {
		fmt.Fprintln(stderr, "dnnsim:", err)
		return 2
	}
	if set["nodes"] {
		want := *nodes * sc.Topology.RanksPerNode
		if set["P"] && !(len(psList) == 1 && psList[0] == want) {
			fmt.Fprintf(stderr, "dnnsim: -P %s conflicts with -nodes %d × -ppn %d = %d\n",
				*ps, *nodes, sc.Topology.RanksPerNode, want)
			return 2
		}
		psList = []int{want}
		sc.Procs = want
	} else if set["P"] {
		// The sweep drives P; keep the spec self-consistent by probing
		// with the first entry rather than the config/default procs.
		sc.Procs = psList[0]
	} else if *config != "" && sc.Procs > 0 {
		psList = []int{sc.Procs}
	}
	if set["policy"] || (*config == "" && !sc.Timeline) {
		pol, err := timeline.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 2
		}
		sc.Timeline = true
		sc.Policy = pol
	}
	if set["schedule"] || *config == "" {
		shape, err := timeline.ParseSchedule(*schedule)
		if err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 2
		}
		sc.Schedule = shape
	}
	if set["micro"] || (*config == "" && len(sc.MicroBatches) == 0) {
		ms, err := parseIntList(*micro, "micro-batch count")
		if err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 2
		}
		sc.MicroBatches = ms
	}
	if err := applyPipelineFlags(&sc, set, *stages, *partition); err != nil {
		fmt.Fprintln(stderr, "dnnsim:", err)
		return 2
	}
	applyWorkersFlag(&sc, set, *workers)
	sc = sc.Normalize()
	if *trace != "" {
		// Trace export is a different product: simulate the pinned
		// configuration once and write its schedule as Chrome
		// trace-event JSON instead of running experiments.
		res, err := dnnparallel.Simulate(sc)
		if err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 2
		}
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 1
		}
		werr := report.WriteChromeTrace(f, res.Raw)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "dnnsim:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "wrote Chrome trace for %s grid %s (%d spans, makespan %ss) to %s — open in https://ui.perfetto.dev\n",
			res.Network, res.Config.Grid, len(res.Raw.Spans), report.F(res.Makespan), *trace)
		if len(res.Config.PerStage) > 0 {
			fmt.Fprintf(stdout, "\nPer-stage partition (S=%d, cuts %v, per-stage grid %s):\n",
				res.Config.Stages, res.Config.Partition, res.Config.Grid)
			fmt.Fprint(stdout, StageTable(res.Config.PerStage))
		}
		return 0
	}
	// The experiments sweep P themselves (and ignore any pinned grid);
	// validate the spec with a stand-in process count when the scenario
	// leaves it open.
	probe := sc
	probe.Grid = ""
	if probe.Procs == 0 {
		probe.Procs = 1
	}
	r, err := probe.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, "dnnsim:", err)
		return 2
	}

	setup := experiments.Default()
	setup.Net = r.Net
	setup.DatasetN = r.Options.DatasetN
	setup.Workers = r.Options.Workers
	setup.Compute = r.Options.Compute
	if sc.Topology != nil {
		setup.Topology = r.Options.Topology
	} else {
		setup.Machine = r.Options.Machine
	}

	if *calibrate {
		setup.Compute = compute.CalibrateLocal(192, time.Second)
		fmt.Fprintf(stdout, "calibrated local compute model: peak·eff ≈ %.3g FLOP/s, half-speed batch ≈ %.1f\n\n",
			setup.Compute.Peak*setup.Compute.EffMax, setup.Compute.BHalf)
	}

	pol := r.Options.TimelinePolicy
	shape := r.Options.Schedule
	micros := sc.MicroBatches
	if len(micros) == 0 {
		micros = []int{1}
	}
	B := sc.Batch
	orDefault := func(def []int) []int {
		if len(psList) > 0 {
			return psList
		}
		return def
	}

	run := func(name string) error {
		switch name {
		case "table1":
			fmt.Fprintln(stdout, "Table 1 — fixed simulation parameters")
			fmt.Fprint(stdout, setup.Table1())
		case "fig4":
			fmt.Fprint(stdout, experiments.RenderFig4(setup.Fig4()))
		case "eq5":
			fmt.Fprint(stdout, experiments.RenderEq5(setup.Eq5()))
		case "fig6", "fig7", "fig8":
			mode := planner.Uniform
			overlap := false
			title := "Fig. 6 — strong scaling, same Pr×Pc grid for all layers"
			if name == "fig7" {
				mode = planner.ConvBatch
				title = "Fig. 7 — strong scaling, conv layers pure batch, FC layers on the grid"
			}
			if name == "fig8" {
				mode = planner.ConvBatch
				overlap = true
				title = "Fig. 8 — Fig. 7 with perfect comm/backprop overlap"
			}
			res, err := setup.StrongScaling(mode, overlap, B, orDefault(experiments.StandardFig6Ps()))
			if err != nil {
				return err
			}
			emitScaling(stdout, title, res, *csv, setup.DatasetN)
		case "fig9":
			res, err := setup.WeakScaling(planner.Uniform, experiments.StandardFig9Pairs())
			if err != nil {
				return err
			}
			emitScaling(stdout, "Fig. 9 — weak scaling (B and P grow together), uniform grids", res, *csv, setup.DatasetN)
			// The caption's remark: "a better approach is to use pure batch
			// parallelism for convolutional layers" — quantified.
			better, err := setup.WeakScaling(planner.ConvBatch, experiments.StandardFig9Pairs())
			if err != nil {
				return err
			}
			emitScaling(stdout, "Fig. 9 (improved per caption) — conv layers pure batch", better, *csv, setup.DatasetN)
		case "fig10":
			res, err := setup.BeyondBatch(*beyondB, orDefault(experiments.StandardFig10Ps()))
			if err != nil {
				return err
			}
			emitScaling(stdout, fmt.Sprintf("Fig. 10 — scaling beyond the P=B=%d limit with domain-parallel convs", *beyondB),
				res, *csv, setup.DatasetN)
		case "timeline":
			var studies []experiments.TimelineResult
			for _, P := range orDefault(experiments.StandardFig6Ps()) {
				tr, err := setup.TimelineStudy(planner.Auto, pol, B, P)
				if err != nil {
					return err
				}
				if *csv {
					studies = append(studies, tr)
					continue
				}
				fmt.Fprint(stdout, experiments.RenderTimeline(tr))
				fmt.Fprintln(stdout)
			}
			if *csv {
				fmt.Fprint(stdout, experiments.TimelineCSV(studies))
			}
		case "pipeline":
			var all []experiments.PipelineRow
			for _, P := range orDefault([]int{512}) {
				rows, err := setup.PipelineSweep(planner.Auto, pol, shape, B, P, micros)
				if err != nil {
					return err
				}
				if *csv {
					all = append(all, rows...)
					continue
				}
				fmt.Fprint(stdout, experiments.RenderPipeline(rows))
				fmt.Fprintln(stdout)
			}
			if *csv {
				fmt.Fprint(stdout, experiments.PipelineCSV(all))
			}
		case "verify":
			reps, err := experiments.VerifyEngines(4, 8, 7, experiments.BandwidthOnly)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderEngineReports(reps))
		case "sensitivity":
			rows, err := setup.Sensitivity()
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderSensitivity(rows))
		case "memory":
			fmt.Fprint(stdout, experiments.RenderMemory(setup.MemoryStudy(B, 512), B, 512))
		case "onebyone":
			row, err := setup.OneByOneStudy(128, 512)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderOneByOne(row))
		case "convergence":
			rows, err := experiments.Convergence(4, 11)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderConvergence(rows, 4))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig4", "eq5", "fig6", "fig7", "fig8", "fig9", "fig10",
			"timeline", "pipeline", "verify", "sensitivity", "memory", "onebyone", "convergence"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintln(stderr, "dnnsim:", err)
			return 1
		}
	}
	return 0
}

func emitScaling(w io.Writer, title string, res []experiments.ScalingResult, csv bool, n int) {
	if csv {
		fmt.Fprint(w, experiments.ScalingCSV(res))
		return
	}
	fmt.Fprint(w, experiments.RenderScaling(title, res, true, n))
}
