// Package scenario defines the declarative, JSON-round-trippable
// description of one planning or simulation question: which network,
// which machine, which batch, and which parallelism search space. It is
// the serializable face of planner.Options — every implicit cross-field
// invariant of the flag-per-knob era is resolved here by construction:
//
//   - micro-batch candidates > 1 imply timeline scoring (Normalize turns
//     Timeline on instead of erroring later, matching the planner's
//     requirement that pipeline schedules are scored by the simulator);
//   - Machine and Topology are mutually exclusive (the Options.Topology
//     field used to silently shadow Options.Machine; a Scenario that sets
//     both is rejected eagerly with a typed error);
//   - Procs and Topology.Nodes×RanksPerNode must agree, and either can
//     derive the other.
//
// The JSON form is canonical: Normalize sorts and dedupes the search
// lists and fills derivable fields, after which Marshal → Unmarshal →
// Marshal is bit-exact. Canonical() returns that byte form — the cache
// key of the dnnserve planning service.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"dnnparallel/internal/convergence"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/timeline"
)

// LinkSpec overrides one α–β link level. Zero fields keep the
// platform's default for that level (Cori-KNL: Aries between nodes,
// shared memory within one).
type LinkSpec struct {
	// AlphaSeconds is the per-message latency in seconds.
	AlphaSeconds float64 `json:"alpha_seconds,omitempty"`
	// BandwidthGBs is the link bandwidth in GB/s (the paper quotes 1/β
	// this way; β itself is derived as WordBytes / (GB/s × 1e9)).
	BandwidthGBs float64 `json:"bandwidth_gbs,omitempty"`
}

// valid reports whether the spec can resolve to a physical link: no
// negative latency or bandwidth (0 keeps the default). An absent spec
// is valid.
func (l *LinkSpec) valid() bool {
	return l == nil || l.AlphaSeconds >= 0 && l.BandwidthGBs >= 0
}

// link resolves the spec against a default link.
func (l *LinkSpec) link(def machine.Link) machine.Link {
	if l == nil {
		return def
	}
	out := def
	if l.AlphaSeconds != 0 {
		out.Alpha = l.AlphaSeconds
	}
	if l.BandwidthGBs != 0 {
		out.Beta = machine.WordBytes / (l.BandwidthGBs * 1e9)
	}
	return out
}

// MachineSpec overrides the flat α–β machine (default: the paper's
// Table 1 Cori-KNL). Mutually exclusive with TopologySpec.
type MachineSpec struct {
	Name string `json:"name,omitempty"`
	// AlphaSeconds is the network latency per message in seconds.
	AlphaSeconds float64 `json:"alpha_seconds,omitempty"`
	// BandwidthGBs is the network bandwidth in GB/s.
	BandwidthGBs float64 `json:"bandwidth_gbs,omitempty"`
	// PeakTFlops is the per-process peak rate in TFLOP/s.
	PeakTFlops float64 `json:"peak_tflops,omitempty"`
}

// resolve applies the overrides to the default machine.
func (m *MachineSpec) resolve() machine.Machine {
	out := machine.CoriKNL()
	if m == nil {
		return out
	}
	if m.Name != "" {
		out.Name = m.Name
	}
	if m.AlphaSeconds != 0 {
		out.Alpha = m.AlphaSeconds
	}
	if m.BandwidthGBs != 0 {
		out.Beta = machine.WordBytes / (m.BandwidthGBs * 1e9)
	}
	if m.PeakTFlops != 0 {
		out.PeakFlops = m.PeakTFlops * 1e12
	}
	return out
}

// LevelSpec describes one link level of a hierarchical machine,
// innermost first (level 0 is the node's internal link; the outermost
// level is the unbounded top of the hierarchy).
type LevelSpec struct {
	// Name labels the level in reports and traces ("node", "rack",
	// "spine"); Normalize fills "l<i>" when empty.
	Name string `json:"name,omitempty"`
	// AlphaSeconds is the per-message latency in seconds.
	AlphaSeconds float64 `json:"alpha_seconds,omitempty"`
	// BandwidthGBs is the link bandwidth in GB/s (required > 0).
	BandwidthGBs float64 `json:"bandwidth_gbs,omitempty"`
	// GroupRanks is the number of consecutive machine ranks one unit of
	// this level hosts (ranks per node, per rack, …) — a strictly
	// increasing multiple of the previous level's, and 0 on the
	// outermost level only (unbounded).
	GroupRanks int `json:"group_ranks,omitempty"`
}

// Default link levels for the two-level sugar spelling, matching
// machine.CoriKNLNodes: shared memory within a node, Aries between.
const (
	defIntraAlpha, defIntraGBs = 5e-7, 60
	defInterAlpha, defInterGBs = 2e-6, 6
)

// level materializes a LinkSpec (possibly nil) over the default values
// into an explicit LevelSpec — the canonical form of the two-level
// sugar.
func (l *LinkSpec) level(name string, defAlpha, defGBs float64, group int) LevelSpec {
	lv := LevelSpec{Name: name, AlphaSeconds: defAlpha, BandwidthGBs: defGBs, GroupRanks: group}
	if l != nil {
		if l.AlphaSeconds != 0 {
			lv.AlphaSeconds = l.AlphaSeconds
		}
		if l.BandwidthGBs != 0 {
			lv.BandwidthGBs = l.BandwidthGBs
		}
	}
	return lv
}

// TopologySpec selects the hierarchical machine. The canonical spelling
// is Levels — an innermost-first list of link levels of any depth (up
// to machine.MaxLevels). The nodes/ranks_per_node/intra/inter fields
// are the legacy two-level sugar: Normalize canonicalizes them onto the
// equivalent two-level list ({node, cluster}, defaults from
// machine.CoriKNLNodes), so both spellings of the same machine share
// one canonical form — and one dnnserve cache entry. Mutually exclusive
// with MachineSpec, and the two spellings are mutually exclusive with
// each other.
type TopologySpec struct {
	// Levels is the canonical spelling: one entry per link level,
	// innermost first.
	Levels []LevelSpec `json:"levels,omitempty"`

	// Nodes is the node count (two-level sugar). When > 0 it must agree
	// with the scenario's procs (procs = nodes × ranks_per_node);
	// either field derives the other.
	Nodes int `json:"nodes,omitempty"`
	// RanksPerNode is the number of processes packed per node (≥ 1;
	// two-level sugar).
	RanksPerNode int `json:"ranks_per_node,omitempty"`
	// Intra and Inter override the two link levels (two-level sugar).
	Intra *LinkSpec `json:"intra,omitempty"`
	Inter *LinkSpec `json:"inter,omitempty"`
	// PeakTFlops overrides the per-process peak rate in TFLOP/s.
	PeakTFlops float64 `json:"peak_tflops,omitempty"`
}

// resolve builds the machine.Topology.
func (t *TopologySpec) resolve() machine.Topology {
	base := machine.CoriKNL()
	if len(t.Levels) > 0 {
		topo := machine.Topology{PeakFlops: base.PeakFlops}
		var sizes []string
		for i, lv := range t.Levels {
			name := lv.Name
			if name == "" {
				name = fmt.Sprintf("l%d", i)
			}
			topo.Levels = append(topo.Levels, machine.Level{
				Name:      name,
				Link:      machine.Link{Alpha: lv.AlphaSeconds, Beta: machine.WordBytes / (lv.BandwidthGBs * 1e9)},
				GroupSize: lv.GroupRanks,
			})
			if i < len(t.Levels)-1 {
				sizes = append(sizes, fmt.Sprintf("%d", lv.GroupRanks))
			}
		}
		switch len(t.Levels) {
		case 1:
			topo.Name = base.Name
		case 2:
			// The name the two-level sugar has always resolved to.
			topo.Name = fmt.Sprintf("%s-%dppn", base.Name, t.Levels[0].GroupRanks)
		default:
			topo.Name = fmt.Sprintf("%s-%s", base.Name, strings.Join(sizes, "x"))
		}
		if t.PeakTFlops != 0 {
			topo.PeakFlops = t.PeakTFlops * 1e12
		}
		return topo
	}
	topo := machine.CoriKNLNodes(t.RanksPerNode)
	topo.Levels[0].Link = t.Intra.link(topo.Levels[0].Link)
	topo.Levels[1].Link = t.Inter.link(topo.Levels[1].Link)
	if t.PeakTFlops != 0 {
		topo.PeakFlops = t.PeakTFlops * 1e12
	}
	return topo
}

// PartitionSpec is the pipeline partition choice: the literal string
// "auto" (search the contiguous splits) or an explicit list of stage
// boundaries — cut positions into the weighted-layer list, strictly
// increasing in (0, L). The two spellings round-trip through JSON as
// written; Normalize drops the explicit "auto" (it is the default).
type PartitionSpec struct {
	// Auto requests the partition co-search ("auto" in JSON).
	Auto bool
	// Cuts pins the stage boundaries (a JSON int array).
	Cuts []int
}

// MarshalJSON renders "auto" or the cut list.
func (p PartitionSpec) MarshalJSON() ([]byte, error) {
	if p.Auto && len(p.Cuts) == 0 {
		return []byte(`"auto"`), nil
	}
	return json.Marshal(p.Cuts)
}

// UnmarshalJSON accepts "auto" or a cut list.
func (p *PartitionSpec) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if s != "auto" {
			return fmt.Errorf(`partition: want "auto" or a cut list, got %q`, s)
		}
		*p = PartitionSpec{Auto: true}
		return nil
	}
	var cuts []int
	if err := json.Unmarshal(data, &cuts); err != nil {
		return fmt.Errorf(`partition: want "auto" or a cut list, got %s`, data)
	}
	*p = PartitionSpec{Cuts: cuts}
	return nil
}

// PipelineSpec configures stage-partitioned pipeline planning: the
// network's weighted layers are split into Stages contiguous stages,
// each running on its own P/Stages-sized grid, with the inter-stage
// activation handoffs priced against the topology level each boundary
// crosses. The legacy top-level pipeline_stages field is sugar for
// {"stages": S}; Normalize canonicalizes it onto this block, so both
// spellings share one canonical form (and one dnnserve cache entry).
type PipelineSpec struct {
	// Stages is the stage count S (≥ 2 in canonical form; a block with
	// S of 0 or 1 normalizes away). Must divide procs and not exceed the
	// network's weighted layer count. Derivable from an explicit
	// partition (len(cuts)+1).
	Stages int `json:"stages,omitempty"`
	// Partition selects the layer split: absent or "auto" co-searches
	// the contiguous splits; an explicit cut list pins one.
	Partition *PartitionSpec `json:"partition,omitempty"`
	// MaxPartitions caps the per-stage-count partition enumeration
	// (0 ⇒ the planner default of 64).
	MaxPartitions int `json:"max_partitions,omitempty"`
}

// ConvergenceSpec configures the steps-to-target model S(B) the
// time-to-accuracy objective prices campaigns with (see
// internal/convergence for the three-regime shape). Absent, the
// network's own preset curve applies; Preset borrows another network's
// curve; the three explicit parameters override individual regime
// constants of whichever preset is in effect. Normalize canonicalizes:
// the preset name is lowercased (and dropped when it names the
// scenario's own network), explicit parameters equal to the effective
// preset's are dropped, and a block that reduces to the network default
// disappears entirely — so every spelling of one model shares one
// canonical form (and one dnnserve cache entry).
type ConvergenceSpec struct {
	// Preset names the preset curve to start from (default: the
	// scenario's network).
	Preset string `json:"preset,omitempty"`
	// StepsAtB1 overrides S(1), the steps to target at batch size 1.
	StepsAtB1 float64 `json:"steps_at_b1,omitempty"`
	// CriticalB overrides the critical batch size (the knee).
	CriticalB float64 `json:"critical_b,omitempty"`
	// Exponent overrides the knee sharpness.
	Exponent float64 `json:"exponent,omitempty"`
}

// SearchSpec configures the search engine itself — how the candidate
// product is evaluated, not which candidates it contains. The engine is
// deterministic, so these knobs never change the returned plan: workers
// trades wall time for goroutines, and bounds toggles the
// branch-and-bound pruning that skips full pricing of provably losing
// candidates (see planner.Options.DisableBounds).
type SearchSpec struct {
	// Workers is the number of candidate-evaluation goroutines
	// (0 ⇒ runtime.GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Bounds toggles branch-and-bound pruning. Absent means on — the
	// default; Normalize drops an explicit true, so only the
	// non-default "bounds": false survives in canonical form.
	Bounds *bool `json:"bounds,omitempty"`
}

// Scenario is the declarative spec. The zero value is not useful; start
// from Default (or the root package's New builder) or a JSON file, then
// Normalize + Validate — Plan and Simulate do both eagerly.
type Scenario struct {
	// Network names a preset: alexnet|vgg16|onebyone|resnet50.
	Network string `json:"network"`
	// Batch is the global minibatch size B (≥ 1).
	Batch int `json:"batch"`
	// Procs is the process count P (≥ 1; derivable from Topology).
	Procs int `json:"procs"`
	// DatasetN, when > 0, also prices epochs (×⌈N/B⌉).
	DatasetN int `json:"dataset_n,omitempty"`

	// Objective selects what the planner minimizes: absent/"iteration"
	// (time per training iteration at the fixed Batch — the paper's
	// objective) or "time-to-accuracy" (steps-to-target × iteration
	// seconds, the predicted wall clock of the whole training campaign).
	Objective planner.Objective `json:"objective,omitempty"`
	// BatchSizes lists candidate global batch sizes the time-to-accuracy
	// search prices as its outermost dimension (Batch is always
	// included). Rejected under the iteration objective, where B is
	// fixed by definition. Sorted and deduped by Normalize; dropped when
	// it degenerates to {Batch}.
	BatchSizes []int `json:"batch_sizes,omitempty"`
	// Convergence tunes the steps-to-target model (time-to-accuracy
	// only; absent = the network's preset curve).
	Convergence *ConvergenceSpec `json:"convergence,omitempty"`

	// Machine overrides the flat α–β platform; Topology switches to the
	// hierarchical platform (a list of link levels: node, rack, …).
	// Setting both is an error — a topology carries its own top-level
	// link, so there is nothing left for a flat machine to mean.
	Machine  *MachineSpec  `json:"machine,omitempty"`
	Topology *TopologySpec `json:"topology,omitempty"`

	// Mode is the conv-layer search mode. Absent in JSON = uniform (the
	// zero value); Default() and the builders use auto.
	Mode planner.Mode `json:"mode"`
	// Placements constrains the rank-placement search (two-level
	// topology only). Empty = automatic.
	Placements []grid.Placement `json:"placements,omitempty"`
	// Overlap applies the Fig. 8 closed-form comm/backprop overlap.
	// Ignored when Timeline is set (the timeline policy subsumes it).
	Overlap bool `json:"overlap,omitempty"`
	// Timeline scores every candidate with the per-layer event-driven
	// simulator under Policy. Normalize turns it on whenever a
	// micro-batch candidate exceeds 1 — pipeline schedules are only
	// scorable by the simulator, so the old MicroBatches/UseTimeline
	// invariant cannot be violated by construction.
	Timeline bool            `json:"timeline,omitempty"`
	Policy   timeline.Policy `json:"policy,omitempty"`
	// MicroBatches lists candidate micro-batch counts M (sorted and
	// deduped by Normalize; empty = {1}, no pipelining).
	MicroBatches []int `json:"micro_batches,omitempty"`
	// Schedule is the pipeline shape for M > 1 (gpipe|1f1b).
	Schedule timeline.Shape `json:"schedule,omitempty"`
	// PipelineStages is the stage count S (0 ⇒ 1) — legacy sugar for
	// Pipeline{Stages: S}; Normalize canonicalizes S > 1 onto the
	// Pipeline block. Setting both is an error.
	PipelineStages int `json:"pipeline_stages,omitempty"`
	// Pipeline configures stage-partitioned planning (stage count,
	// partition choice, enumeration cap).
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
	// MemoryLimitWords, when > 0, rejects plans whose per-process
	// footprint exceeds the limit.
	MemoryLimitWords float64 `json:"memory_limit_words,omitempty"`
	// MaxBatchParallel, when > 0, caps the Pc grid dimension.
	MaxBatchParallel int `json:"max_batch_parallel,omitempty"`
	// AddRedistribution prices the Eq. 6 strategy-boundary activation
	// redistribution.
	AddRedistribution bool `json:"add_redistribution,omitempty"`

	// Grid pins one PrxPc factorization (e.g. "8x64"). Plan then prices
	// only that grid; Simulate requires it.
	Grid string `json:"grid,omitempty"`

	// Search tunes the search engine (worker count, branch-and-bound).
	// Never changes the returned plan, only how fast it is found.
	Search *SearchSpec `json:"search,omitempty"`
}

// Default returns the paper's headline configuration: AlexNet, B = 2048,
// P = 512, ImageNet-sized dataset, auto per-layer strategy on Cori-KNL.
func Default() Scenario {
	return Scenario{
		Network:  "alexnet",
		Batch:    2048,
		Procs:    512,
		DatasetN: 1200000,
		Mode:     planner.Auto,
	}
}

// Normalize fills derivable fields and rewrites the spec into its
// canonical form: network lowercased, micro-batch candidates sorted and
// deduped (dropped entirely when they degenerate to {1}), placements
// deduped in search order, the grid string re-rendered, procs derived
// from the topology when absent, and Timeline switched on when any
// micro-batch candidate exceeds 1. Normalizing twice is a no-op; a
// normalized scenario marshals bit-exactly stable JSON. Fields it cannot
// interpret (an unknown network, a malformed grid, a negative count) are
// left for Validate to report.
func (s Scenario) Normalize() Scenario {
	out := s
	if key, err := nn.PresetKey(out.Network); err == nil {
		out.Network = key
	}
	if len(out.MicroBatches) > 0 {
		ms := slices.Clone(out.MicroBatches)
		slices.Sort(ms)
		ms = slices.Compact(ms)
		if len(ms) == 1 && ms[0] == 1 {
			ms = nil // {1} is the implicit default: no pipelining
		}
		out.MicroBatches = ms
		for _, m := range ms {
			if m > 1 {
				out.Timeline = true // pipelines are scored by the simulator
			}
		}
	}
	if len(out.BatchSizes) > 0 {
		bs := slices.Clone(out.BatchSizes)
		slices.Sort(bs)
		bs = slices.Compact(bs)
		if len(bs) == 1 && bs[0] == out.Batch {
			bs = nil // {Batch} is the implicit default: no batch search
		}
		out.BatchSizes = bs
	}
	if out.Convergence != nil {
		c := *out.Convergence
		c.Preset = strings.ToLower(strings.TrimSpace(c.Preset))
		if c.Preset == out.Network {
			c.Preset = "" // the scenario's own network is the default
		}
		name := c.Preset
		if name == "" {
			name = out.Network
		}
		if base, err := convergence.Preset(name); err == nil {
			// Explicit parameters equal to the effective preset's change
			// nothing; dropping them makes respellings cache-identical.
			// An unknown preset is left intact for Validate to report.
			if c.StepsAtB1 == base.StepsAtB1 {
				c.StepsAtB1 = 0
			}
			if c.CriticalB == base.CriticalB {
				c.CriticalB = 0
			}
			if c.Exponent == base.Exponent {
				c.Exponent = 0
			}
		}
		if (c == ConvergenceSpec{}) {
			out.Convergence = nil // the network's preset curve is the default
		} else {
			out.Convergence = &c
		}
	}
	if out.PipelineStages == 1 || out.PipelineStages > 1 && out.Pipeline == nil {
		// Canonicalize the legacy sugar onto the pipeline block (S = 1 is
		// the default and normalizes away entirely, next to a pipeline
		// block too); both spellings of one question share one canonical
		// form — and one plan-cache entry.
		if out.PipelineStages > 1 {
			out.Pipeline = &PipelineSpec{Stages: out.PipelineStages}
		}
		out.PipelineStages = 0
	}
	if out.Pipeline != nil {
		p := *out.Pipeline
		if p.Partition != nil && p.Partition.Auto && len(p.Partition.Cuts) == 0 {
			p.Partition = nil // "auto" is the default
		}
		if p.Stages == 0 && p.Partition != nil {
			p.Stages = len(p.Partition.Cuts) + 1 // cuts imply the stage count
		}
		if (p.Stages == 0 || p.Stages == 1) && p.Partition == nil && p.MaxPartitions == 0 {
			out.Pipeline = nil // the degenerate block is the default
		} else {
			out.Pipeline = &p
		}
		if out.Pipeline != nil && out.Pipeline.Stages > 1 {
			out.Timeline = true // stage partitions are scored by the simulator
		}
	}
	if out.Timeline {
		out.Overlap = false // the timeline policy subsumes the closed form
	}
	if len(out.Placements) > 0 {
		pls := slices.Clone(out.Placements)
		slices.Sort(pls)
		out.Placements = slices.Compact(pls)
	}
	if out.Topology != nil {
		t := *out.Topology
		if len(t.Levels) == 0 && t.RanksPerNode > 0 && t.Nodes >= 0 && t.Nodes <= MaxProcs/t.RanksPerNode &&
			!(t.Nodes > 0 && out.Procs > 0 && out.Procs != t.Nodes*t.RanksPerNode) && t.Intra.valid() && t.Inter.valid() {
			// Canonicalize the consistent two-level sugar onto the levels
			// list: both spellings of one machine share one canonical
			// form (and one plan-cache entry). Malformed sugar (a
			// negative node count, a nodes×ranks_per_node/procs
			// conflict, a product over MaxProcs, which is never
			// multiplied out, or a negative intra/inter link) is left for
			// Validate, which names the field the client wrote.
			if out.Procs == 0 && t.Nodes > 0 {
				out.Procs = t.Nodes * t.RanksPerNode
			}
			t.Levels = []LevelSpec{
				t.Intra.level("node", defIntraAlpha, defIntraGBs, t.RanksPerNode),
				t.Inter.level("cluster", defInterAlpha, defInterGBs, 0),
			}
			t.Nodes, t.RanksPerNode, t.Intra, t.Inter = 0, 0, nil, nil
		}
		if len(t.Levels) > 0 {
			lv := append([]LevelSpec(nil), t.Levels...)
			for i := range lv {
				if lv[i].Name == "" {
					lv[i].Name = fmt.Sprintf("l%d", i)
				}
			}
			t.Levels = lv
		}
		out.Topology = &t
	}
	if out.Grid != "" {
		if g, err := grid.Parse(out.Grid); err == nil {
			out.Grid = g.String()
		}
	}
	if out.Search != nil {
		se := *out.Search
		if se.Bounds != nil && *se.Bounds {
			se.Bounds = nil // on is the default
		}
		if se.Workers == 0 && se.Bounds == nil {
			out.Search = nil // the empty block is the default
		} else {
			out.Search = &se
		}
	}
	return out
}

// Validate reports the first problem with the (ideally normalized) spec
// as a *ValidationError. A valid scenario resolves without panicking
// anywhere downstream: the boundary panics of the internal fast paths
// are guarded either here (EpochIterations on B ≤ 0 or N < 0, machine
// constants feeding the timeline's non-negativity checks) or by the
// planner's own per-candidate feasibility checks (MemoryStages' B%M
// divisibility, which skips non-dividing candidates before pricing).
func (s Scenario) Validate() error {
	var opts planner.Options
	return s.lower(&opts)
}

// lower validates the spec (see Validate) and lowers it into opts: the
// Options Resolve hands the planner, bar StageCounts. The candidate
// budget is the planner's own count of that search
// (planner.Options.Space), so it reads the very options the search runs.
func (s Scenario) lower(opts *planner.Options) error {
	net, err := nn.Preset(s.Network)
	if err != nil {
		return invalid("network", "%v", err)
	}
	if s.Batch < 1 {
		return invalid("batch", "need a global batch ≥ 1, got %d", s.Batch)
	}
	// Checked before anything multiplies nodes × ranks_per_node, which
	// could overflow.
	if t := s.Topology; t != nil && t.RanksPerNode > 0 && t.Nodes > MaxProcs/t.RanksPerNode {
		return invalid("topology.nodes", "nodes %d × ranks_per_node %d exceeds the %d-process cap", t.Nodes, t.RanksPerNode, MaxProcs)
	}
	if s.Procs < 1 {
		return invalid("procs", "need a process count ≥ 1, got %d (set procs or topology nodes × ranks_per_node)", s.Procs)
	}
	if s.Procs > MaxProcs {
		return invalid("procs", "%d processes exceed the %d-process cap", s.Procs, MaxProcs)
	}
	if s.DatasetN < 0 {
		return invalid("dataset_n", "need a dataset size ≥ 0, got %d", s.DatasetN)
	}
	if s.Machine != nil && s.Topology != nil {
		return invalid("machine", "machine and topology are mutually exclusive: a topology carries its own inter-node link")
	}
	opts.Machine = s.Machine.resolve()
	if s.Machine != nil {
		if err := opts.Machine.Validate(); err != nil {
			return invalid("machine", "%v", err)
		}
	}
	if s.Topology != nil {
		t := s.Topology
		if len(t.Levels) > 0 {
			if t.RanksPerNode != 0 || t.Nodes != 0 || t.Intra != nil || t.Inter != nil {
				return invalid("topology.levels", "levels replaces nodes/ranks_per_node/intra/inter; use one spelling only")
			}
			if len(t.Levels) > machine.MaxLevels {
				return invalid("topology.levels", "%d levels exceed the %d-level cap", len(t.Levels), machine.MaxLevels)
			}
			for i, lv := range t.Levels {
				if lv.BandwidthGBs <= 0 {
					return invalid("topology.levels", "level %d (%s): need bandwidth_gbs > 0, got %g", i, lv.Name, lv.BandwidthGBs)
				}
			}
			opts.Topology = t.resolve()
			if err := opts.Topology.Validate(); err != nil {
				return invalid("topology", "%v", err)
			}
		} else {
			if t.RanksPerNode < 1 {
				return invalid("topology.ranks_per_node", "need ≥ 1 rank per node, got %d", t.RanksPerNode)
			}
			for _, ln := range []struct {
				field string
				spec  *LinkSpec
			}{{"topology.intra", t.Intra}, {"topology.inter", t.Inter}} {
				if !ln.spec.valid() {
					return invalid(ln.field, "need alpha_seconds ≥ 0 and bandwidth_gbs ≥ 0 (0 keeps the default), got %g and %g",
						ln.spec.AlphaSeconds, ln.spec.BandwidthGBs)
				}
			}
			opts.Topology = t.resolve()
			if err := opts.Topology.Validate(); err != nil {
				return invalid("topology", "%v", err)
			}
			if t.Nodes < 0 {
				return invalid("topology.nodes", "need a node count ≥ 0, got %d", t.Nodes)
			}
			if t.Nodes > 0 && s.Procs != t.Nodes*t.RanksPerNode {
				return invalid("topology.nodes", "procs=%d conflicts with nodes %d × ranks_per_node %d = %d",
					s.Procs, t.Nodes, t.RanksPerNode, t.Nodes*t.RanksPerNode)
			}
		}
	}
	if err := s.Mode.Validate(); err != nil {
		return invalid("mode", "%v", err)
	}
	if err := s.Objective.Validate(); err != nil {
		return invalid("objective", "%v", err)
	}
	if s.Objective == planner.TimeToAccuracy {
		for _, b := range s.BatchSizes {
			if b < 1 {
				return invalid("batch_sizes", "candidates must be ≥ 1, got %d", b)
			}
		}
		if opts.Curve, err = s.curve(); err != nil {
			return invalid("convergence", "%v", err)
		}
	} else {
		if len(s.BatchSizes) > 0 {
			return invalid("batch_sizes", `batch-size search needs "objective": "time-to-accuracy" (B is fixed by definition under the iteration objective)`)
		}
		if s.Convergence != nil {
			return invalid("convergence", `a steps-to-target model needs "objective": "time-to-accuracy" (the iteration objective never reads it)`)
		}
	}
	for _, p := range s.Placements {
		if err := p.Validate(); err != nil {
			return invalid("placements", "%v", err)
		}
	}
	if err := s.Policy.Validate(); err != nil {
		return invalid("policy", "%v", err)
	}
	if err := s.Schedule.Validate(); err != nil {
		return invalid("schedule", "%v", err)
	}
	divides := len(s.MicroBatches) == 0
	for _, m := range s.MicroBatches {
		if m < 1 {
			return invalid("micro_batches", "candidates must be ≥ 1, got %d", m)
		}
		if m > 1 && !s.Timeline {
			// Unreachable after Normalize; kept so a hand-built spec
			// fails eagerly instead of inside the planner.
			return invalid("micro_batches", "M=%d needs timeline scoring (Normalize sets it)", m)
		}
		if s.Batch%m == 0 {
			divides = true
		}
		for _, b := range s.BatchSizes {
			if b >= 1 && b%m == 0 {
				divides = true
			}
		}
	}
	if !divides {
		// Individual non-dividing candidates are skipped by the search
		// (a sweep like {1,2,3,4} over B=100 is fine), but when *no*
		// candidate divides any searched batch size the whole search
		// space is empty by construction — a spec error, not a planning
		// outcome.
		return invalid("micro_batches", "no candidate in %v divides batch %d (or any batch_sizes entry)", s.MicroBatches, s.Batch)
	}
	if s.PipelineStages < 0 {
		return invalid("pipeline_stages", "need a stage count ≥ 0, got %d", s.PipelineStages)
	}
	if s.PipelineStages > 1 && s.Pipeline != nil {
		return invalid("pipeline_stages", "pipeline_stages is sugar for pipeline.stages; use one spelling only")
	}
	S := max(s.PipelineStages, 1)
	if s.Pipeline != nil {
		p := s.Pipeline
		if p.Stages < 0 {
			return invalid("pipeline.stages", "need a stage count ≥ 0, got %d", p.Stages)
		}
		if p.MaxPartitions < 0 {
			return invalid("pipeline.max_partitions", "need a cap ≥ 0, got %d", p.MaxPartitions)
		}
		stages := p.Stages
		if p.Partition != nil {
			if p.Partition.Auto && len(p.Partition.Cuts) > 0 {
				return invalid("pipeline.partition", `"auto" and an explicit cut list are mutually exclusive`)
			}
			if cuts := p.Partition.Cuts; len(cuts) > 0 {
				if stages == 0 {
					stages = len(cuts) + 1
				}
				if stages != len(cuts)+1 {
					return invalid("pipeline.partition", "%d cuts imply %d stages, spec says %d",
						len(cuts), len(cuts)+1, stages)
				}
				for i, c := range cuts {
					if c < 1 || (i > 0 && c <= cuts[i-1]) {
						return invalid("pipeline.partition", "cuts must be strictly increasing positions ≥ 1, got %v", cuts)
					}
				}
			}
		}
		if stages > 1 {
			S = stages
			L := len(net.WeightedLayers())
			if stages > L {
				return invalid("pipeline.stages", "%d stages exceed the network's %d weighted layers", stages, L)
			}
			if p.Partition != nil {
				if cuts := p.Partition.Cuts; len(cuts) > 0 && cuts[len(cuts)-1] >= L {
					return invalid("pipeline.partition", "cut %d is out of range for %d weighted layers",
						cuts[len(cuts)-1], L)
				}
			}
			if s.Procs%stages != 0 {
				return invalid("pipeline.stages", "%d stages must divide procs=%d (equal per-stage grids)", stages, s.Procs)
			}
			if !s.Timeline {
				// Unreachable after Normalize; kept so a hand-built spec
				// fails eagerly instead of inside the planner.
				return invalid("pipeline.stages", "S=%d needs timeline scoring (Normalize sets it)", stages)
			}
		}
	}
	if s.MemoryLimitWords < 0 {
		return invalid("memory_limit_words", "need a limit ≥ 0, got %g", s.MemoryLimitWords)
	}
	if s.MaxBatchParallel < 0 {
		return invalid("max_batch_parallel", "need a cap ≥ 0, got %d", s.MaxBatchParallel)
	}
	if s.Search != nil && s.Search.Workers < 0 {
		return invalid("search.workers", "need a worker count ≥ 0, got %d", s.Search.Workers)
	}
	var pinned *grid.Grid
	if s.Grid != "" {
		g, err := grid.Parse(s.Grid)
		if err != nil {
			return invalid("grid", "%v", err)
		}
		pinned = &g
		// A pinned grid is per-stage: S stage blocks of g.P() ranks tile
		// the machine (S = 1 without a pipeline block).
		stages := 1
		if s.Pipeline != nil && s.Pipeline.Stages > 1 {
			stages = s.Pipeline.Stages
		}
		if g.P()*stages != s.Procs {
			if stages > 1 {
				return invalid("grid", "per-stage grid %v × %d stages uses %d processes but procs=%d",
					g, stages, g.P()*stages, s.Procs)
			}
			return invalid("grid", "grid %v uses %d processes but procs=%d", g, g.P(), s.Procs)
		}
	}
	opts.Mode = s.Mode
	opts.Overlap = s.Overlap
	opts.DatasetN = s.DatasetN
	opts.MemoryLimitWords = s.MemoryLimitWords
	opts.AddRedistribution = s.AddRedistribution
	opts.MaxPc = s.MaxBatchParallel
	opts.UseTimeline = s.Timeline
	opts.TimelinePolicy = s.Policy
	opts.MicroBatches = s.MicroBatches
	opts.Schedule = s.Schedule
	opts.Placements = s.Placements
	opts.Objective = s.Objective
	opts.BatchSizes = s.BatchSizes // empty under the iteration objective
	if s.Search != nil {
		opts.Workers = s.Search.Workers
		opts.DisableBounds = s.Search.Bounds != nil && !*s.Search.Bounds
	}
	if s.Pipeline != nil {
		opts.MaxPartitions = s.Pipeline.MaxPartitions
		if s.Pipeline.Partition != nil {
			opts.Partition = s.Pipeline.Partition.Cuts
		}
	}
	if s.Topology != nil {
		// The flat view a topology-unaware consumer should see: every
		// link priced at the inter-node level. This replaces the old
		// silent shadowing — Machine is *derived from* Topology, never
		// set alongside it.
		opts.Machine = opts.Topology.Machine()
	}
	opts.Compute = DefaultCompute()
	opts.Compute.Peak = opts.Machine.PeakFlops
	sp := opts.Space(net, s.Batch, s.Procs, S, pinned)
	// The product in floats: a large pipeline.max_partitions admits
	// binomial partition counts that can overflow an int product.
	if n := float64(sp.Partitions) * float64(sp.GridPlacements) * float64(sp.MicroBatches) * float64(sp.BatchSizes); n > MaxCandidates {
		return invalid("candidates", "%d partitions × %d grid placements × %d micro-batch counts × %d batch sizes = %.0f candidate plans exceed the budget of %d (lower pipeline.max_partitions, pin a grid or a partition, or search fewer micro_batches or batch_sizes)",
			sp.Partitions, sp.GridPlacements, sp.MicroBatches, sp.BatchSizes, n, MaxCandidates)
	}
	return nil
}

// MaxProcs caps a scenario's process count. The largest any shipped
// example, golden, test or benchmark input asks for is 4096; the cap
// sits far above that, yet low enough that every per-P loop (grid
// factorizations, rank-span classification) stays cheap and that
// nodes × ranks_per_node is checked against it before it could
// overflow an int.
const MaxProcs = 1 << 24

// MaxCandidates is the search budget of one scenario: the most candidate
// plans — (batch size, grid, placement, partition, micro-batch) leaves,
// as the planner counts them (planner.Options.Space) — Validate lets one
// scenario ask the planner to price. Every shipped
// example asks for a few hundred at most; an exhaustive VGG16 search
// over 8 stages (6435 partitions × 10 grids × 6 micro-batch counts ≈
// 386k leaves) would tie the planner up for minutes. It is a constant,
// not a knob: a larger question is split by pinning a grid or a
// partition, or by lowering pipeline.max_partitions.
const MaxCandidates = 131072

// curve resolves the effective steps-to-target model for the
// time-to-accuracy objective: the convergence block's preset curve
// (default: the scenario's own network), with the block's non-zero
// explicit parameters overriding individual regime constants. The
// result is validated, so overrides cannot smuggle in a curve the
// monotonicity properties do not hold for.
func (s Scenario) curve() (convergence.Curve, error) {
	name := s.Network
	var c ConvergenceSpec
	if s.Convergence != nil {
		c = *s.Convergence
		if p := strings.ToLower(strings.TrimSpace(c.Preset)); p != "" {
			name = p
		}
	}
	base, err := convergence.Preset(name)
	if err != nil {
		return convergence.Curve{}, err
	}
	if c.StepsAtB1 != 0 {
		base.StepsAtB1 = c.StepsAtB1
	}
	if c.CriticalB != 0 {
		base.CriticalB = c.CriticalB
	}
	if c.Exponent != 0 {
		base.Exponent = c.Exponent
	}
	return base, base.Validate()
}

// Canonical returns the canonical byte form: the compact JSON of the
// normalized scenario. Two scenarios describing the same question have
// identical canonical bytes — the dnnserve plan-cache key.
func (s Scenario) Canonical() ([]byte, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Resolved is a scenario lowered onto the internal planning types.
type Resolved struct {
	// Normalized is the normalized scenario that was validated and
	// lowered, for callers that echo it.
	Normalized Scenario
	// Net is the shared, read-only preset network (nn.Preset).
	Net     *nn.Network
	Batch   int
	Procs   int
	Options planner.Options
	// Grid is the pinned factorization, nil when the scenario searches
	// all of them.
	Grid *grid.Grid
}

// Resolve normalizes, validates, and lowers the scenario. The returned
// Options are complete: callers hand them straight to planner.Optimize
// or planner.Evaluate.
func (s Scenario) Resolve() (Resolved, error) {
	n := s.Normalize()
	var opts planner.Options
	if err := n.lower(&opts); err != nil {
		return Resolved{}, err
	}
	if n.Pipeline != nil && n.Pipeline.Stages > 1 {
		opts.StageCounts = []int{n.Pipeline.Stages}
	}
	net, _ := nn.Preset(n.Network) // lower resolved it
	r := Resolved{Normalized: n, Net: net, Batch: n.Batch, Procs: n.Procs, Options: opts}
	if n.Grid != "" {
		g, _ := grid.Parse(n.Grid) // lower parsed it
		r.Grid = &g
	}
	return r, nil
}

// Load reads and decodes a scenario JSON file. Unknown fields are
// rejected — a typo in a spec must not silently plan something else.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return Decode(data)
}

// Decode parses a scenario from JSON bytes, rejecting unknown fields.
func Decode(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, &ValidationError{Field: "json", Reason: err.Error()}
	}
	return s, nil
}
