// Package cli implements the dnnplan, dnnsim, dnntrain, and dnnserve
// command-line front ends as testable functions over the public
// dnnparallel façade. Each command accepts `-config scenario.json` — the
// same declarative Scenario the Go API and the dnnserve HTTP service
// consume — with every flag acting as an override on top of it, so the
// CLIs cannot fork their own planning semantics (proved by the parity
// test in cli_test.go).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dnnparallel"
	"dnnparallel/internal/experiments"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
	"dnnparallel/internal/timeline"
)

// loadBase returns the scenario a command starts from: the -config file
// when given, the paper's default otherwise.
func loadBase(configPath string) (dnnparallel.Scenario, error) {
	if configPath == "" {
		return dnnparallel.DefaultScenario(), nil
	}
	return dnnparallel.LoadScenario(configPath)
}

// visited collects the flag names explicitly set on the command line —
// the flags that override the scenario file.
func visited(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s, what string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// exitCode maps a façade error onto the traditional CLI exit codes:
// 2 for a malformed request (flag-parse class), 1 for a planning
// failure.
func exitCode(err error) int {
	var ve *dnnparallel.ValidationError
	if errors.As(err, &ve) {
		return 2
	}
	return 1
}

// PlanMain is the dnnplan entry point. It builds a Scenario from
// -config plus flag overrides, calls dnnparallel.Plan, and renders the
// result with RenderPlan — byte-identical to what a library caller
// rendering the same PlanResult would get.
func PlanMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnnplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "", "scenario JSON file (see examples/scenarios); flags override its fields")
	netName := fs.String("net", "", "network: alexnet|vgg16|onebyone|resnet50 (default from scenario: alexnet)")
	batch := fs.Int("B", 0, "global minibatch size (default from scenario: 2048)")
	procs := fs.Int("P", 0, "process count (default from scenario: 512)")
	modeName := fs.String("mode", "", "conv-layer handling: uniform|conv-batch|conv-domain|auto (default from scenario: auto)")
	overlap := fs.Bool("overlap", false, "assume perfect comm/backprop overlap (Fig. 8, aggregate closed form)")
	policyName := fs.String("policy", "", "score with the per-layer event-driven timeline under this overlap policy: none|backprop|full (overrides -overlap)")
	microList := fs.String("micro", "", "comma-separated micro-batch counts to search per grid (entries > 1 enable timeline scoring)")
	scheduleName := fs.String("schedule", "", "pipeline schedule shape for -micro: gpipe|1f1b (default gpipe)")
	stages := fs.Int("stages", 0, "pipeline stage count S; > 1 partitions the network into S contiguous stages, each on its own P/S-rank grid, and co-searches the layer cuts (enables timeline scoring)")
	partition := fs.String("partition", "", `pipeline layer partition: "auto" (search the cuts) or comma-separated cut positions into the weighted-layer list, e.g. "6" splits before the 7th weighted layer`)
	gantt := fs.Bool("gantt", false, "print the best plan's per-layer schedule (needs timeline scoring)")
	stats := fs.Bool("stats", false, "print the planner's search telemetry (candidates enumerated/pruned/priced, branch-and-bound cuts [bounded], best-cost trajectory, phase wall times)")
	gridName := fs.String("grid", "", "pin one PrxPc factorization instead of searching (e.g. 8x64)")
	alpha := fs.Float64("alpha", 0, "network latency α in seconds (default 2e-6; the inter-node link on a two-level topology)")
	bwGB := fs.Float64("bw", 0, "network bandwidth 1/β in GB/s (default 6; the inter-node link on a two-level topology)")
	ppn := fs.Int("ppn", 0, "ranks per node; > 0 enables the two-level intra-/inter-node topology")
	nodes := fs.Int("nodes", 0, "node count (with -ppn, sets P = nodes × ppn)")
	intraAlpha := fs.Float64("intra-alpha", 0, "intra-node latency α in seconds (default 5e-7; with -ppn)")
	intraBwGB := fs.Float64("intra-bw", 0, "intra-node bandwidth 1/β in GB/s (default 60; with -ppn)")
	levels := fs.String("levels", "", "N-level hierarchical topology as name:alpha:bw[:group],… innermost first (e.g. node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6); replaces the -nodes/-ppn/-intra-* two-level sugar")
	placementName := fs.String("placement", "", "pin the rank placement: row-major|col-major (default: search both)")
	workers := fs.Int("workers", 0, "candidate-evaluation goroutines for the search (0 = GOMAXPROCS); never changes the result, only wall time")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc, err := loadBase(*config)
	if err != nil {
		fmt.Fprintln(stderr, "dnnplan:", err)
		return 2
	}
	set := visited(fs)
	if set["net"] {
		sc.Network = *netName
	}
	if set["B"] {
		sc.Batch = *batch
	}
	if set["P"] {
		sc.Procs = *procs
	}
	if set["mode"] {
		m, err := planner.ParseMode(*modeName)
		if err != nil {
			fmt.Fprintln(stderr, "dnnplan:", err)
			return 2
		}
		sc.Mode = m
	}
	if set["overlap"] {
		sc.Overlap = *overlap
	}
	if set["policy"] {
		pol, err := timeline.ParsePolicy(*policyName)
		if err != nil {
			fmt.Fprintln(stderr, "dnnplan:", err)
			return 2
		}
		sc.Timeline = true
		sc.Policy = pol
	}
	if set["schedule"] {
		shape, err := timeline.ParseSchedule(*scheduleName)
		if err != nil {
			fmt.Fprintln(stderr, "dnnplan:", err)
			return 2
		}
		sc.Schedule = shape
	}
	if set["micro"] {
		ms, err := parseIntList(*microList, "micro-batch count")
		if err != nil {
			fmt.Fprintln(stderr, "dnnplan:", err)
			return 2
		}
		sc.MicroBatches = ms
	}
	if set["grid"] {
		sc.Grid = *gridName
	}
	applyWorkersFlag(&sc, set, *workers)
	if err := applyPipelineFlags(&sc, set, *stages, *partition); err != nil {
		fmt.Fprintln(stderr, "dnnplan:", err)
		return 2
	}
	if err := applyTopologyFlags(&sc, set, topoFlags{
		ppn: *ppn, nodes: *nodes,
		alpha: *alpha, bwGB: *bwGB,
		intraAlpha: *intraAlpha, intraBwGB: *intraBwGB,
		levels:    *levels,
		explicitP: set["P"],
	}); err != nil {
		fmt.Fprintln(stderr, "dnnplan:", err)
		return 2
	}
	if set["placement"] {
		if sc.Topology == nil {
			fmt.Fprintln(stderr, "dnnplan: -placement needs a hierarchical topology (-ppn or -levels; placement cannot matter on a flat machine)")
			return 2
		}
		pl, err := grid.ParsePlacement(*placementName)
		if err != nil {
			fmt.Fprintln(stderr, "dnnplan:", err)
			return 2
		}
		sc.Placements = []dnnparallel.Placement{pl}
	}
	sc = sc.Normalize()
	if *gantt && !sc.Timeline {
		fmt.Fprintln(stderr, "dnnplan: -gantt needs timeline scoring (-policy, or a scenario with \"timeline\": true)")
		return 2
	}

	res, err := dnnparallel.Plan(sc)
	if err != nil {
		fmt.Fprintln(stderr, "dnnplan:", err)
		return exitCode(err)
	}
	fmt.Fprint(stdout, RenderPlan(res, *gantt))
	if *stats {
		if res.Stats == nil {
			fmt.Fprintln(stderr, "dnnplan: no search telemetry (a pinned grid evaluates exactly one configuration; drop -grid to search)")
		} else {
			fmt.Fprintf(stdout, "\nSearch telemetry:\n%s", res.Stats)
		}
	}
	return 0
}

// applyWorkersFlag lowers -workers onto the scenario's search block,
// preserving any bounds setting a config file carries.
func applyWorkersFlag(sc *dnnparallel.Scenario, set map[string]bool, workers int) {
	if !set["workers"] {
		return
	}
	se := &dnnparallel.SearchSpec{}
	if sc.Search != nil {
		*se = *sc.Search
	}
	se.Workers = workers
	sc.Search = se
}

// applyPipelineFlags lowers -stages/-partition onto the scenario's
// pipeline block, folding the legacy pipeline_stages sugar into the
// block first so a flag can override a config file using either
// spelling.
func applyPipelineFlags(sc *dnnparallel.Scenario, set map[string]bool, stages int, partition string) error {
	if !set["stages"] && !set["partition"] {
		return nil
	}
	p := &dnnparallel.PipelineSpec{}
	if sc.Pipeline != nil {
		*p = *sc.Pipeline
	} else if sc.PipelineStages > 1 {
		p.Stages = sc.PipelineStages
	}
	sc.PipelineStages = 0
	if set["stages"] {
		p.Stages = stages
	}
	if set["partition"] {
		if s := strings.TrimSpace(partition); s == "auto" {
			p.Partition = &dnnparallel.PartitionSpec{Auto: true}
		} else {
			cuts, err := parseIntList(s, "partition cut")
			if err != nil {
				return err
			}
			p.Partition = &dnnparallel.PartitionSpec{Cuts: cuts}
		}
	}
	sc.Pipeline = p
	return nil
}

// topoFlags bundles the link/topology flag values for applyTopologyFlags.
type topoFlags struct {
	ppn, nodes            int
	alpha, bwGB           float64
	intraAlpha, intraBwGB float64
	levels                string
	explicitP             bool
}

// applyTopologyFlags maps the machine/topology flags onto the scenario,
// resolving the flat-vs-hierarchical split by construction: -levels
// installs an explicit N-level list; with -ppn the α/bandwidth overrides
// address the inter-node link of a TopologySpec (folding any flat
// machine override from the config file into it); without either they
// address the flat MachineSpec, and the intra-node flags are rejected
// because the link they describe does not exist.
func applyTopologyFlags(sc *dnnparallel.Scenario, set map[string]bool, f topoFlags) error {
	if set["levels"] {
		if set["ppn"] || set["nodes"] || set["intra-alpha"] || set["intra-bw"] {
			return fmt.Errorf("-levels conflicts with the two-level sugar flags (-nodes/-ppn/-intra-*); spell every level in -levels")
		}
		ls, err := ParseLevels(f.levels)
		if err != nil {
			return err
		}
		topo := &dnnparallel.TopologySpec{Levels: ls}
		if sc.Topology != nil {
			topo.PeakTFlops = sc.Topology.PeakTFlops
		}
		if sc.Machine != nil {
			if topo.PeakTFlops == 0 {
				topo.PeakTFlops = sc.Machine.PeakTFlops
			}
			sc.Machine = nil
		}
		sc.Topology = topo
	}
	if set["nodes"] && !set["ppn"] && sc.Topology == nil {
		return fmt.Errorf("-nodes needs -ppn (ranks per node)")
	}
	if (set["intra-alpha"] || set["intra-bw"]) && !set["ppn"] && sc.Topology == nil {
		return fmt.Errorf("-intra-alpha/-intra-bw need -ppn (the intra-node link only exists on a two-level topology)")
	}
	if set["ppn"] {
		topo := sc.Topology
		if topo == nil {
			topo = &dnnparallel.TopologySpec{}
		}
		topo.RanksPerNode = f.ppn
		if sc.Machine != nil {
			// The config's flat overrides become the inter-node level.
			if topo.Inter == nil && (sc.Machine.AlphaSeconds != 0 || sc.Machine.BandwidthGBs != 0) {
				topo.Inter = &dnnparallel.LinkSpec{
					AlphaSeconds: sc.Machine.AlphaSeconds,
					BandwidthGBs: sc.Machine.BandwidthGBs,
				}
			}
			if topo.PeakTFlops == 0 {
				topo.PeakTFlops = sc.Machine.PeakTFlops
			}
			sc.Machine = nil
		}
		sc.Topology = topo
	}
	if set["alpha"] || set["bw"] {
		if sc.Topology != nil && len(sc.Topology.Levels) > 0 {
			return fmt.Errorf("-alpha/-bw address the flat machine or the inter-node link of the two-level sugar; with -levels, spell α and bandwidth inside the level list")
		}
		if sc.Topology != nil {
			link := sc.Topology.Inter
			if link == nil {
				link = &dnnparallel.LinkSpec{}
			}
			if set["alpha"] {
				link.AlphaSeconds = f.alpha
			}
			if set["bw"] {
				link.BandwidthGBs = f.bwGB
			}
			sc.Topology.Inter = link
		} else {
			m := sc.Machine
			if m == nil {
				m = &dnnparallel.MachineSpec{}
			}
			if set["alpha"] {
				m.AlphaSeconds = f.alpha
			}
			if set["bw"] {
				m.BandwidthGBs = f.bwGB
			}
			sc.Machine = m
		}
	}
	if set["intra-alpha"] || set["intra-bw"] {
		link := sc.Topology.Intra
		if link == nil {
			link = &dnnparallel.LinkSpec{}
		}
		if set["intra-alpha"] {
			link.AlphaSeconds = f.intraAlpha
		}
		if set["intra-bw"] {
			link.BandwidthGBs = f.intraBwGB
		}
		sc.Topology.Intra = link
	}
	if set["nodes"] {
		sc.Topology.Nodes = f.nodes
		if !f.explicitP {
			sc.Procs = f.nodes * sc.Topology.RanksPerNode
		}
	}
	return nil
}

// StageTable renders the per-stage rows of a stage-partitioned plan:
// each stage's layer slice, grid and rank block, parameter and compute
// load, activation stash, and the activation handoff it receives —
// volume, cost, and the topology link the cut crosses.
func StageTable(stages []dnnparallel.StageSummary) string {
	var rows [][]string
	for _, st := range stages {
		boundary, link := "-", "-"
		if st.BoundaryBytes > 0 {
			boundary = fmt.Sprintf("%.4g MB", st.BoundaryBytes/1e6)
			if st.BoundaryLevel != "" {
				link = st.BoundaryLevel
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", st.Stage),
			st.Layers,
			fmt.Sprintf("%d", st.LayerCount),
			st.Grid,
			fmt.Sprintf("%d", st.RankOffset),
			fmt.Sprintf("%.4g", st.ParamWords),
			report.F(st.CompSeconds),
			report.F(st.CommSeconds),
			fmt.Sprintf("%.2f", st.StashBytes/1e9),
			boundary,
			link,
		})
	}
	return report.Table(
		[]string{"Stage", "Layers", "n", "grid", "rank0", "params", "comp s/µb", "comm s/µb", "stash GB", "boundary", "link"},
		rows)
}

// RenderPlan renders a PlanResult exactly as the dnnplan CLI prints it.
// PlanMain calls this on the façade's output, so CLI text and API result
// cannot disagree.
func RenderPlan(res *dnnparallel.PlanResult, gantt bool) string {
	var b strings.Builder
	sc := res.Scenario
	topoAware := sc.Topology != nil
	tta := sc.Objective == dnnparallel.ObjectiveTimeToAccuracy
	microSearch := false
	for _, m := range sc.MicroBatches {
		if m > 1 {
			microSearch = true
		}
	}
	if tta {
		campaign := planner.Options{Objective: sc.Objective, BatchSizes: sc.BatchSizes}.Batches(sc.Batch)
		fmt.Fprintf(&b, "%s, B=%d (%d campaign batch sizes), P=%d, mode=%v, objective=time-to-accuracy, machine=%s\n\n",
			res.Network, sc.Batch, len(campaign), sc.Procs, sc.Mode, res.Machine)
	} else {
		fmt.Fprintf(&b, "%s, B=%d, P=%d, mode=%v, machine=%s\n\n",
			res.Network, sc.Batch, sc.Procs, sc.Mode, res.Machine)
	}
	header := []string{"Grid"}
	if tta {
		header = []string{"B", "Grid"}
	}
	if topoAware {
		header = append(header, "place")
	}
	if microSearch {
		header = append(header, "µbatch", "bubble")
	}
	header = append(header, "comm s/iter", "comp s/iter", "exposed s/iter", "total s/iter", "s/epoch")
	if tta {
		header = append(header, "steps", "s to target")
	}
	header = append(header, "")
	var rows [][]string
	for _, p := range res.All {
		row := []string{p.Grid}
		if tta {
			row = []string{fmt.Sprintf("%d", p.Batch), p.Grid}
		}
		if topoAware {
			if p.Feasible {
				row = append(row, p.Placement.String())
			} else {
				row = append(row, "-")
			}
		}
		if microSearch {
			if p.Feasible {
				row = append(row, fmt.Sprintf("%d", p.MicroBatch), fmt.Sprintf("%.1f%%", 100*p.BubbleFraction))
			} else {
				row = append(row, "-", "-")
			}
		}
		if !p.Feasible {
			row = append(row, "-", "-", "-", "-", "-")
			if tta {
				row = append(row, "-", "-")
			}
			row = append(row, "infeasible: "+p.Reason)
		} else {
			note := ""
			if p.Grid == res.Best.Grid && (!tta || p.Batch == res.Best.Batch) {
				note = "← best"
			}
			row = append(row,
				report.F(p.CommSeconds), report.F(p.CompSeconds),
				report.F(p.ExposedCommSeconds),
				report.F(p.IterSeconds), report.F(p.EpochSeconds))
			if tta {
				row = append(row, fmt.Sprintf("%.4g", p.StepsToTarget), report.F(p.TimeToAccuracySeconds))
			}
			row = append(row, note)
		}
		rows = append(rows, row)
	}
	b.WriteString(report.Table(header, rows))
	if tta {
		fmt.Fprintf(&b, "\nTime-to-accuracy winner: B=%d on grid %s — %.4g steps × %ss/iter = %ss (%.3g h)\n",
			res.Best.Batch, res.Best.Grid, res.Best.StepsToTarget,
			report.F(res.Best.IterSeconds), report.F(res.Best.TimeToAccuracySeconds),
			res.Best.TimeToAccuracySeconds/3600)
	}
	if microSearch {
		fmt.Fprintf(&b, "\nBest plan schedule: %v, M=%d micro-batches (bubble %.1f%%)\n",
			res.Best.Schedule, res.Best.MicroBatch, 100*res.Best.BubbleFraction)
	}
	if len(res.Best.PerStage) > 0 {
		fmt.Fprintf(&b, "\nPer-stage partition of the best plan (S=%d, cuts %v, per-stage grid %s):\n",
			res.Best.Stages, res.Best.Partition, res.Best.Grid)
		b.WriteString(StageTable(res.Best.PerStage))
	}

	if res.SpeedupTotal > 0 {
		fmt.Fprintf(&b, "\nSpeedup vs pure batch (1x%d): %.2fx total, %.2fx communication\n",
			sc.Procs, res.SpeedupTotal, res.SpeedupComm)
	} else if sc.Grid == "" {
		// Only a full search proves the baseline infeasible; a pinned
		// non-pure-batch grid simply never evaluated it.
		fmt.Fprintf(&b, "\nPure batch (1x%d) is infeasible at B=%d — the beyond-batch regime of Fig. 10.\n",
			sc.Procs, sc.Batch)
	}

	if topoAware {
		fmt.Fprintf(&b, "\nPer-layer strategy of the best plan (grid %s, placement %v):\n",
			res.Best.Grid, res.Best.Placement)
	} else {
		fmt.Fprintf(&b, "\nPer-layer strategy of the best plan (grid %s):\n", res.Best.Grid)
	}
	var srows [][]string
	for _, ls := range res.Best.Assignment {
		srows = append(srows, []string{
			ls.Layer, ls.Kind, ls.Output, fmt.Sprintf("%d", ls.Weights), ls.Strategy,
		})
	}
	b.WriteString(report.Table([]string{"Layer", "Kind", "Output", "|W|", "Strategy"}, srows))

	// On a non-uniform topology, show where the communication time goes:
	// one row per link level, innermost first. A timeline-scored plan's
	// breakdown prices one micro-batch, so its levels are the simulated
	// level lanes' busy times, summed over pipeline stages.
	if res.Raw != nil {
		if bd := res.Raw.Best.Breakdown; bd != nil && len(bd.LevelNames) > 0 {
			levels, total := bd.LevelSeconds(), bd.TotalSeconds()
			if tl := res.Raw.Best.Timeline; tl != nil {
				clear(levels)
				for _, rs := range tl.PerResource {
					if i := int(rs.Resource.Base() - timeline.NetworkLevel(0)); i >= 0 && i < len(levels) {
						levels[i] += rs.BusySeconds
					}
				}
				total = tl.CommSeconds
			}
			fmt.Fprintf(&b, "\nPer-level communication of the best plan:\n")
			var lrows [][]string
			for i, secs := range levels {
				share := "-"
				if total > 0 {
					share = fmt.Sprintf("%.1f%%", 100*secs/total)
				}
				lrows = append(lrows, []string{bd.LevelNames[i], report.F(secs), share})
			}
			b.WriteString(report.Table([]string{"Level", "comm s/iter", "share"}, lrows))
		}
	}

	if gantt && res.Raw != nil && res.Raw.Best.Timeline != nil {
		tl := res.Raw.Best.Timeline
		fmt.Fprintf(&b, "\nPer-layer schedule, grid %s, policy %v (%s):\n",
			res.Best.Grid, sc.Policy, experiments.GanttLegend(tl))
		b.WriteString(report.Gantt("", experiments.GanttSpans(tl), 64))
		fmt.Fprintf(&b, "makespan %ss, exposed comm %ss, drain %ss\n",
			report.F(tl.Makespan), report.F(tl.ExposedCommSeconds), report.F(tl.DrainSeconds))
	}
	return b.String()
}
