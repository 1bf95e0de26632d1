package experiments

import (
	"fmt"
	"strings"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
	"dnnparallel/internal/timeline"
)

// PipelineRow is one point of the micro-batch sweep at fixed (B, P): the
// planner's best grid when every candidate grid is scored as an
// M-micro-batch pipeline schedule.
type PipelineRow struct {
	B, P, M   int
	Shape     timeline.Shape
	Policy    timeline.Policy
	Grid      grid.Grid
	Placement grid.Placement

	IterSeconds        float64
	CommSeconds        float64
	CompSeconds        float64
	ExposedCommSeconds float64
	BubbleFraction     float64
	// MemoryWords is the total per-process footprint — weights +
	// gradients + the schedule's activation-stash high-water mark
	// (costmodel.MemoryStages).
	MemoryWords float64

	Feasible bool
	Reason   string
}

// PipelineSweep sweeps micro-batch counts at fixed B and P: for each M
// the planner searches every grid (and placement, on a two-level
// topology) under an M-micro-batch schedule of the given shape, scored
// by the multi-iteration timeline under pol. The sweep quantifies the
// pipeline tradeoff the single-iteration cost model cannot see: more
// micro-batches hide more communication behind other micro-batches'
// compute, until the α-term penalty of B/M-sized collectives (and, for
// gpipe, the growing activation stash) turns the curve back up.
func (s Setup) PipelineSweep(mode planner.Mode, pol timeline.Policy, shape timeline.Shape, B, P int, Ms []int) ([]PipelineRow, error) {
	if len(Ms) == 0 {
		return nil, fmt.Errorf("experiments: pipeline sweep needs at least one micro-batch count")
	}
	o := s.options(mode, false)
	o.UseTimeline = true
	o.TimelinePolicy = pol
	o.Schedule = shape
	var rows []PipelineRow
	for _, M := range Ms {
		row := PipelineRow{B: B, P: P, M: M, Shape: shape, Policy: pol}
		o.MicroBatches = []int{M}
		res, err := planner.Optimize(s.Net, B, P, o)
		if err != nil {
			// e.g. every grid stash-infeasible at this M: report the row,
			// keep sweeping.
			row.Reason = err.Error()
			rows = append(rows, row)
			continue
		}
		best := res.Best
		row.Feasible = true
		row.Grid = best.Grid
		row.Placement = best.Placement
		row.IterSeconds = best.IterSeconds
		row.CommSeconds = best.CommSeconds
		row.CompSeconds = best.CompSeconds
		row.ExposedCommSeconds = best.ExposedCommSeconds
		row.BubbleFraction = best.BubbleFraction
		row.MemoryWords = best.MemoryWords
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPipeline prints the sweep as a table with the best M marked.
func RenderPipeline(rows []PipelineRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return "(empty pipeline sweep)\n"
	}
	fmt.Fprintf(&b, "Pipeline micro-batch sweep — B=%d, P=%d, shape=%v, policy=%v\n",
		rows[0].B, rows[0].P, rows[0].Shape, rows[0].Policy)
	best := -1
	for i, r := range rows {
		if r.Feasible && (best < 0 || r.IterSeconds < rows[best].IterSeconds) {
			best = i
		}
	}
	var trows [][]string
	for i, r := range rows {
		if !r.Feasible {
			trows = append(trows, []string{fmt.Sprintf("%d", r.M), "-", "-", "-", "-", "-", "-", "infeasible: " + r.Reason})
			continue
		}
		note := ""
		if i == best {
			note = "← best"
		}
		trows = append(trows, []string{
			fmt.Sprintf("%d", r.M),
			r.Grid.String(),
			report.F(r.IterSeconds),
			report.F(r.CommSeconds),
			report.F(r.ExposedCommSeconds),
			fmt.Sprintf("%.1f%%", 100*r.BubbleFraction),
			fmt.Sprintf("%.3g", r.MemoryWords),
			note,
		})
	}
	b.WriteString(report.Table(
		[]string{"M", "grid", "iter s", "comm s", "exposed s", "bubble", "mem words", ""}, trows))
	return b.String()
}

// PipelineCSV emits the machine-readable sweep (one header, one row per
// (P, M) point): makespan, bubble, and memory, as the experiment
// contract promises.
func PipelineCSV(rows []PipelineRow) string {
	header := []string{"P", "B", "M", "shape", "policy", "grid", "placement",
		"iter_s", "comm_s", "comp_s", "exposed_s", "bubble_fraction", "memory_words", "infeasible_reason"}
	var out [][]string
	for _, r := range rows {
		if !r.Feasible {
			out = append(out, []string{
				fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.B), fmt.Sprintf("%d", r.M),
				r.Shape.String(), r.Policy.String(), "", "", "", "", "", "", "", "", r.Reason})
			continue
		}
		out = append(out, []string{
			fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.B), fmt.Sprintf("%d", r.M),
			r.Shape.String(), r.Policy.String(), r.Grid.String(), r.Placement.String(),
			report.F(r.IterSeconds), report.F(r.CommSeconds), report.F(r.CompSeconds),
			report.F(r.ExposedCommSeconds),
			fmt.Sprintf("%.6f", r.BubbleFraction),
			fmt.Sprintf("%.6g", r.MemoryWords), ""})
	}
	return report.CSV(header, out)
}
