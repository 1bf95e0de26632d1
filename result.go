package dnnparallel

import (
	"fmt"
	"sort"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/timeline"
)

// LayerStrategy is one row of the best plan's per-layer strategy table.
type LayerStrategy struct {
	Layer    string `json:"layer"`
	Kind     string `json:"kind"`
	Output   string `json:"output"`
	Weights  int    `json:"weights"`
	Strategy string `json:"strategy"`
}

// StageSummary is one row of a stage-partitioned plan's per-stage table:
// which layers the stage owns, where its rank block sits, what it
// computes, communicates, and stashes, and what its incoming boundary
// handoff costs — with the topology level the cut crosses.
type StageSummary struct {
	Stage int `json:"stage"`
	// Layers is the "first-last" weighted-layer range by network layer
	// name, LayerCount the number of weighted layers.
	Layers     string `json:"layers"`
	LayerCount int    `json:"layer_count"`
	// Grid is the stage's process grid, RankOffset the machine rank its
	// block starts at.
	Grid       string `json:"grid"`
	RankOffset int    `json:"rank_offset"`
	// ParamWords is the stage's total (unsharded) weight words.
	ParamWords float64 `json:"param_words"`
	// CompSeconds/CommSeconds are per micro-batch: the stage's GEMM time
	// and its Eq. 3–9 collective time.
	CompSeconds float64 `json:"comp_seconds"`
	CommSeconds float64 `json:"comm_seconds"`
	// StashBytes is the per-process activation stash high-water mark.
	StashBytes float64 `json:"stash_bytes"`
	// BoundaryBytes is the per-micro-batch activation volume handed into
	// this stage (0 for stage 0), BoundarySeconds its forward+backward
	// transfer cost, and BoundaryLevel the topology level the cut
	// crosses ("" on a flat machine).
	BoundaryBytes   float64 `json:"boundary_bytes,omitempty"`
	BoundarySeconds float64 `json:"boundary_seconds,omitempty"`
	BoundaryLevel   string  `json:"boundary_level,omitempty"`
}

// PlanSummary is the serializable view of one evaluated configuration —
// planner.Plan without the internal pointers, safe to hand to an HTTP
// client.
type PlanSummary struct {
	Grid      string         `json:"grid"`
	Placement grid.Placement `json:"placement"`
	Mode      planner.Mode   `json:"mode"`

	// MicroBatch is the micro-batch count the plan was priced at (1 =
	// single-iteration scoring); Schedule and BubbleFraction qualify
	// pipelined plans.
	MicroBatch     int            `json:"micro_batch,omitempty"`
	Schedule       timeline.Shape `json:"schedule"`
	BubbleFraction float64        `json:"bubble_fraction,omitempty"`

	// Stages, Partition, and PerStage describe stage-partitioned plans:
	// the stage count (omitted for classic single-stage plans, where
	// Grid spans the whole machine), the cut positions into the
	// weighted-layer list, and the per-stage table. For Stages > 1,
	// Grid is the shared per-stage grid.
	Stages    int            `json:"stages,omitempty"`
	Partition []int          `json:"partition,omitempty"`
	PerStage  []StageSummary `json:"per_stage,omitempty"`

	// Batch is the global batch size the plan was priced at — the
	// scenario's Batch unless a time-to-accuracy search selected another
	// candidate from BatchSizes. StepsToTarget and TimeToAccuracySeconds
	// carry the time-to-accuracy objective's campaign prediction (the
	// modeled steps to the target accuracy and steps × iter_seconds);
	// both are omitted under the iteration objective.
	Batch                 int     `json:"batch,omitempty"`
	StepsToTarget         float64 `json:"steps_to_target,omitempty"`
	TimeToAccuracySeconds float64 `json:"time_to_accuracy_seconds,omitempty"`

	CommSeconds        float64 `json:"comm_seconds"`
	CompSeconds        float64 `json:"comp_seconds"`
	ExposedCommSeconds float64 `json:"exposed_comm_seconds"`
	IterSeconds        float64 `json:"iter_seconds"`
	EpochSeconds       float64 `json:"epoch_seconds,omitempty"`
	MemoryWords        float64 `json:"memory_words,omitempty"`

	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`

	// Assignment is the per-layer strategy table, filled for the best
	// plan only (layer order).
	Assignment []LayerStrategy `json:"assignment,omitempty"`
}

// PlanResult is Plan's answer: the best configuration, the whole search
// space it beat, and the pure-batch baseline the paper quotes speedups
// against. The JSON form is the dnnserve /v1/plan response body.
type PlanResult struct {
	// Scenario echoes the normalized spec the result answers.
	Scenario Scenario `json:"scenario"`
	// Machine describes the platform the plans were priced on.
	Machine string `json:"machine"`
	// Network is the resolved network's display name.
	Network string `json:"network"`

	Best PlanSummary `json:"best"`
	// All lists every evaluated factorization, ordered by increasing Pr.
	All []PlanSummary `json:"all,omitempty"`
	// PureBatch is the 1×P baseline when it was evaluated.
	PureBatch *PlanSummary `json:"pure_batch,omitempty"`
	// SpeedupTotal/SpeedupComm quote Best against PureBatch (0 when the
	// baseline is infeasible — the beyond-batch regime).
	SpeedupTotal float64 `json:"speedup_total,omitempty"`
	SpeedupComm  float64 `json:"speedup_comm,omitempty"`

	// Stats is the planner's search telemetry (candidates enumerated /
	// pruned / priced / simulated, the best-cost trajectory, and the
	// enumerate/price/simulate wall-time split). Populated when the
	// scenario searched (nil for a pinned Grid, which evaluates exactly
	// one configuration). The counts are deterministic; the times are
	// not — see planner.SearchStats.ZeroTimes.
	Stats *SearchStats `json:"search_stats,omitempty"`

	// Raw is the untranslated planner result (nil over the wire): the
	// bit-for-bit planner.Optimize output, kept for callers that need
	// the best plan's per-layer breakdown and the timelines. A
	// closed-form search keeps numbers only for the plans it does not
	// report as best: Raw.Best (and its Raw.All entry) carries its
	// Breakdown, the other closed-form entries none (see planner.Plan).
	Raw *planner.Result `json:"-"`
}

// LayerTiming is one layer's scheduled time in a simulated iteration.
type LayerTiming struct {
	Layer       string  `json:"layer"`
	CompSeconds float64 `json:"comp_seconds"`
	CommSeconds float64 `json:"comm_seconds"`
	// FwdExposed/BwdExposed are the compute-pipe stalls ending at this
	// layer's forward/backward GEMMs.
	FwdExposed float64 `json:"fwd_exposed,omitempty"`
	BwdExposed float64 `json:"bwd_exposed,omitempty"`
}

// SimResult is Simulate's answer: one pinned configuration priced by the
// per-layer event-driven timeline. The JSON form is the dnnserve
// /v1/simulate response body.
type SimResult struct {
	Scenario Scenario `json:"scenario"`
	Machine  string   `json:"machine"`
	Network  string   `json:"network"`

	// Config summarizes the evaluated configuration.
	Config PlanSummary `json:"config"`

	Makespan           float64 `json:"makespan_seconds"`
	ExposedCommSeconds float64 `json:"exposed_comm_seconds"`
	DrainSeconds       float64 `json:"drain_seconds"`
	BubbleSeconds      float64 `json:"bubble_seconds"`
	BubbleFraction     float64 `json:"bubble_fraction"`
	MicroBatches       int     `json:"micro_batches"`
	Stages             int     `json:"stages"`

	PerLayer []LayerTiming `json:"per_layer,omitempty"`

	// Raw is the untranslated timeline result (nil over the wire).
	Raw *timeline.Result `json:"-"`
}

// InfeasibleError reports a scenario whose search space contains no
// feasible configuration (or whose pinned grid is infeasible). It is a
// planning outcome, not a malformed request: dnnserve maps it to 422
// where a *ValidationError maps to 400.
type InfeasibleError struct {
	Scenario string // the canonical grid or B/P description
	Reason   string
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("dnnparallel: no feasible plan for %s: %s", e.Scenario, e.Reason)
}

// layerRange renders a stage's inclusive layer slice as "first-last" by
// layer name, or by index when the network is not at hand (the All
// table).
func layerRange(net *nn.Network, first, last int) string {
	if net == nil {
		if first == last {
			return fmt.Sprintf("#%d", first)
		}
		return fmt.Sprintf("#%d-#%d", first, last)
	}
	if first == last {
		return net.Layers[first].Name
	}
	return net.Layers[first].Name + "-" + net.Layers[last].Name
}

// summarize translates one planner.Plan. The assignment table is filled
// only when net is non-nil (the best plan).
func summarize(p planner.Plan, net *nn.Network) PlanSummary {
	s := PlanSummary{
		Grid:                  p.Grid.String(),
		Placement:             p.Placement,
		Mode:                  p.Mode,
		MicroBatch:            p.MicroBatch,
		Schedule:              p.Schedule,
		BubbleFraction:        p.BubbleFraction,
		Batch:                 p.Batch,
		StepsToTarget:         p.StepsToTarget,
		TimeToAccuracySeconds: p.TimeToAccuracySeconds,
		CommSeconds:           p.CommSeconds,
		CompSeconds:           p.CompSeconds,
		ExposedCommSeconds:    p.ExposedCommSeconds,
		IterSeconds:           p.IterSeconds,
		EpochSeconds:          p.EpochSeconds,
		MemoryWords:           p.MemoryWords,
		Feasible:              p.Feasible,
		Reason:                p.Reason,
	}
	if p.Stages > 1 {
		s.Stages = p.Stages
		s.Partition = append([]int(nil), p.Partition...)
		for _, sc := range p.PerStage {
			row := StageSummary{
				Stage:           sc.Stage,
				Layers:          layerRange(net, sc.FirstLayer, sc.LastLayer),
				LayerCount:      sc.Layers,
				Grid:            sc.Grid.String(),
				RankOffset:      sc.RankOffset,
				ParamWords:      sc.ParamWords,
				CompSeconds:     sc.CompSeconds,
				CommSeconds:     sc.CommSeconds,
				StashBytes:      sc.StashWords * machine.WordBytes,
				BoundaryBytes:   sc.BoundaryWords * machine.WordBytes,
				BoundarySeconds: sc.BoundarySeconds,
				BoundaryLevel:   sc.BoundaryLevelName,
			}
			s.PerStage = append(s.PerStage, row)
		}
	}
	if net != nil && p.Assignment != nil {
		lis := make([]int, 0, len(p.Assignment))
		for li := range p.Assignment {
			lis = append(lis, li)
		}
		sort.Ints(lis)
		for _, li := range lis {
			l := &net.Layers[li]
			s.Assignment = append(s.Assignment, LayerStrategy{
				Layer:    l.Name,
				Kind:     l.Kind.String(),
				Output:   l.Out.String(),
				Weights:  l.Weights(),
				Strategy: p.Assignment[li].String(),
			})
		}
	}
	return s
}
