package timeline

import (
	"fmt"
	"math"
	"strconv"

	"dnnparallel/internal/enum"
)

// Policy selects how much communication may overlap computation.
type Policy int

const (
	// PolicyNone serializes everything: each compute and communication
	// event waits for every previous one. The makespan equals the sum of
	// all durations — exactly the closed-form comm + comp baseline of
	// Figs. 6, 7, 9, 10.
	PolicyNone Policy = iota
	// PolicyBackprop generalizes the Fig. 8 idealization per layer:
	// backward communication (∆X/∆W all-reduces, backward halo) is issued
	// as soon as the producing layer's backprop begins — gradients stream
	// out chunk by chunk — and only the end-of-iteration barrier waits for
	// the link to drain. Forward communication stays blocking: the
	// all-gather must finish before the next layer's forward GEMM, and
	// the halo exchange before the consuming layer's own GEMM.
	PolicyBackprop
	// PolicyFull additionally un-blocks forward communication: an
	// all-gather still starts only after its producing GEMM, but the next
	// layer's compute does not wait on it (idealized pre-fetch /
	// asynchronous pipeline, as in local-update training schemes). The
	// compute pipe never stalls; the iteration ends when the slower of
	// the two resources finishes.
	PolicyFull
)

var policies = enum.New("overlap policy", "policy",
	[]string{"none", "backprop", "full"},
	map[string]Policy{"serial": PolicyNone, "overlap": PolicyBackprop, "async": PolicyFull})

func (p Policy) String() string { return policies.String(p) }

// ParsePolicy converts a flag value into a Policy.
func ParsePolicy(s string) (Policy, error) { return policies.Parse(s) }

// Validate returns MarshalText's error, or nil without allocating.
func (p Policy) Validate() error { return policies.Validate(p) }

// MarshalText implements encoding.TextMarshaler so a Policy embeds in
// JSON specs as its canonical string.
func (p Policy) MarshalText() ([]byte, error) { return policies.Marshal(p) }

// UnmarshalText implements encoding.TextUnmarshaler via ParsePolicy.
func (p *Policy) UnmarshalText(text []byte) error { return policies.Unmarshal(p, text) }

// LayerLevels carries the per-level split of each communication field
// of a Layer, produced by pricing the layer against a hierarchical
// machine.Topology (collective.Cost.Levels): entry i of each slice is
// the seconds the collective spends on link level i, innermost first.
// Within one collective the levels run in ascending order — level i+1's
// phase consumes level i's result (the hierarchical all-reduce's
// node-level reduce-scatter feeds the rack-level phase; each level's
// trailing all-gather is folded into that level's busy time, which
// preserves every lane's load and the collective's end-to-end
// duration). Slices may be shorter than the topology depth (missing
// tail levels carry no time) but never longer than MaxNetworkLevels.
type LayerLevels struct {
	// Names labels the levels for reports (innermost first); positional
	// "net-l<i>" names are used where it is empty or short.
	Names []string

	AllGather, FwdHalo, ActReduce, GradReduce, BwdHalo []float64
}

// get returns the split for one communication kind.
func (ll LayerLevels) get(k Kind) []float64 {
	switch k {
	case AllGather:
		return ll.AllGather
	case FwdHalo:
		return ll.FwdHalo
	case ActReduce:
		return ll.ActReduce
	case GradReduce:
		return ll.GradReduce
	case BwdHalo:
		return ll.BwdHalo
	}
	panic(fmt.Sprintf("timeline: kind %v has no link-level split", k))
}

// Layer is the per-layer input to the simulator: compute durations on the
// compute pipe and communication durations on the link, all in seconds.
// Zero-duration entries generate no event. Layers appear in forward
// order; the backward pass visits them in reverse.
type Layer struct {
	Name string

	FwdComp float64 // forward GEMM
	BwdComp float64 // backprop GEMMs (∆X, ∆W) plus the local weight update

	AllGather  float64 // forward activation all-gather (blocks the next layer's FwdComp)
	FwdHalo    float64 // forward input halo exchange (blocks this layer's FwdComp)
	ActReduce  float64 // backprop ∆X all-reduce
	GradReduce float64 // ∆W all-reduce
	BwdHalo    float64 // backward output halo exchange

	// FwdXfer/BwdXfer price the inter-stage pipeline handoff at this
	// layer: when the layer opens a pipeline stage (SimulatePipeline with
	// a partition starting here), its input activations arrive from the
	// previous stage over one point-to-point transfer of FwdXfer seconds,
	// and its input gradient ∆X returns over one of BwdXfer seconds. A
	// handoff is a true data dependency — it blocks this layer's FwdComp
	// (and the downstream stage's backprop) under every overlap policy.
	// Unlike the collective fields the handoff crosses exactly one link
	// level, named by XferLevel when the layer carries a Levels split
	// (ignored on flat layers, which use the single Network lane). Both
	// fields are ignored by single-stage schedules and by layers that do
	// not open a stage.
	FwdXfer   float64
	BwdXfer   float64
	XferLevel int

	// Levels, when non-nil, splits every communication field across the
	// per-level link lanes of a hierarchical machine (NetworkLevel(i));
	// each split must sum back to its flat field (validated). When nil
	// all communication runs on the single Network lane — the
	// flat-machine behavior, unchanged.
	Levels *LayerLevels
}

// commDur returns the flat (single-link) duration of one communication
// kind.
func (l Layer) commDur(k Kind) float64 {
	switch k {
	case AllGather:
		return l.AllGather
	case FwdHalo:
		return l.FwdHalo
	case ActReduce:
		return l.ActReduce
	case GradReduce:
		return l.GradReduce
	case BwdHalo:
		return l.BwdHalo
	}
	panic(fmt.Sprintf("timeline: kind %v is not communication", k))
}

// CommSeconds returns the layer's total time on the link, including any
// inter-stage handoff priced at this layer.
func (l Layer) CommSeconds() float64 {
	return l.AllGather + l.FwdHalo + l.ActReduce + l.GradReduce + l.BwdHalo + l.FwdXfer + l.BwdXfer
}

// CompSeconds returns the layer's total time on the compute pipe.
func (l Layer) CompSeconds() float64 { return l.FwdComp + l.BwdComp }

func (l Layer) validate(i int) {
	check := func(field string, v float64) {
		if v < 0 || math.IsNaN(v) {
			panic(fmt.Sprintf("timeline: layer %d (%s): invalid %s duration %g", i, l.Name, field, v))
		}
	}
	check("FwdComp", l.FwdComp)
	check("BwdComp", l.BwdComp)
	check("AllGather", l.AllGather)
	check("FwdHalo", l.FwdHalo)
	check("ActReduce", l.ActReduce)
	check("GradReduce", l.GradReduce)
	check("BwdHalo", l.BwdHalo)
	check("FwdXfer", l.FwdXfer)
	check("BwdXfer", l.BwdXfer)
	if (l.FwdXfer > 0 || l.BwdXfer > 0) && (l.XferLevel < 0 || l.XferLevel >= MaxNetworkLevels) {
		panic(fmt.Sprintf("timeline: layer %d (%s): handoff level %d outside [0,%d)",
			i, l.Name, l.XferLevel, MaxNetworkLevels))
	}
	if l.Levels == nil {
		return
	}
	if len(l.Levels.Names) > MaxNetworkLevels {
		panic(fmt.Sprintf("timeline: layer %d (%s): %d level names exceed the %d-level lane set",
			i, l.Name, len(l.Levels.Names), MaxNetworkLevels))
	}
	for _, k := range []Kind{AllGather, FwdHalo, ActReduce, GradReduce, BwdHalo} {
		lv := l.Levels.get(k)
		if len(lv) > MaxNetworkLevels {
			panic(fmt.Sprintf("timeline: layer %d (%s): %v split has %d levels, exceeding the %d-level lane set",
				i, l.Name, k, len(lv), MaxNetworkLevels))
		}
		sum := 0.0
		for lvl, v := range lv {
			if v < 0 || math.IsNaN(v) { // name the field only when it fails
				check(fmt.Sprintf("%v level %d", k, lvl), v)
			}
			sum += v
		}
		flat := l.commDur(k)
		if d := math.Abs(sum - flat); d > 1e-9*math.Max(flat, 1e-30) {
			panic(fmt.Sprintf("timeline: layer %d (%s): %v level split %v does not sum to flat duration %g",
				i, l.Name, k, lv, flat))
		}
	}
}

// LayerStats aggregates a layer's scheduled time.
type LayerStats struct {
	Name        string
	CompSeconds float64
	CommSeconds float64
	FwdExposed  float64 // compute-pipe stall ending at this layer's forward GEMM
	BwdExposed  float64 // compute-pipe stall ending at this layer's backward GEMMs
}

// ResourceStats aggregates one lane's scheduled time.
type ResourceStats struct {
	Resource    Resource
	BusySeconds float64
	// IdleSeconds is Makespan − BusySeconds: the lane's idle time over
	// the whole schedule window. For compute lanes this is the lane's
	// pipeline bubble plus any communication stalls.
	IdleSeconds float64
}

// Result is a simulated iteration (single-iteration or pipelined).
type Result struct {
	Policy   Policy
	Spans    []Span // in start order
	Makespan float64

	// MicroBatches and Stages echo the simulated schedule's M and S (1/1
	// for a single iteration, Single()).
	MicroBatches int
	Stages       int

	ComputeSeconds float64 // total busy time across all compute pipes
	CommSeconds    float64 // total busy time across all network lanes
	// ExposedCommSeconds is the communication the schedule could not hide:
	// Makespan − ComputeSeconds. With PolicyNone it equals CommSeconds;
	// with perfect hiding it is 0. Only meaningful for single-stage
	// schedules (with S > 1 compute busy time is summed over stages and
	// the difference is clamped to 0).
	ExposedCommSeconds float64
	// DrainSeconds is the tail of ExposedCommSeconds spent after the last
	// compute event, waiting for the link backlog to clear — the
	// end-of-iteration serialization the closed form models with its
	// single max(0, bwdComm − bwdComp) term.
	DrainSeconds float64

	// BubbleSeconds is the total compute-pipe idle time over the schedule
	// window, summed across the S stage pipes: S·Makespan − ComputeSeconds.
	// BubbleFraction normalizes it to the total pipe time S·Makespan, so a
	// fill–drain (gpipe) schedule of M micro-batches over S uniform stages
	// reports exactly (S−1)/(M+S−1). For a single-stage schedule the
	// bubble is the exposed communication.
	BubbleSeconds  float64
	BubbleFraction float64

	// PerResource lists every lane that appears in the schedule in
	// Resource order, with its busy and idle time.
	PerResource []ResourceStats

	PerLayer []LayerStats

	// LevelNames labels the per-level link lanes (innermost first) when
	// the simulated layers carried a hierarchical split; nil for flat
	// schedules. LaneName uses it to render lanes by topology level.
	LevelNames []string
}

// LaneName renders a lane like Resource.String but substitutes the
// topology level's name ("net-node", "net-rack#2") for the positional
// spelling when the result carries one.
func (r *Result) LaneName(res Resource) string {
	base := res.Base()
	if base >= networkLevel0 {
		if i := int(base - networkLevel0); i < len(r.LevelNames) && r.LevelNames[i] != "" {
			name := "net-" + r.LevelNames[i]
			if s := res.PipelineStage(); s > 0 {
				return fmt.Sprintf("%s#%d", name, s)
			}
			return name
		}
	}
	return res.String()
}

// SpanName labels a scheduled span for reports: its kind and layer
// name, plus the micro-batch ("fwd conv1 µ2") when the schedule ran more
// than one.
func (r *Result) SpanName(s Span) string {
	name := s.Kind.String() + " " + r.PerLayer[s.Layer].Name
	if r.MicroBatches > 1 {
		name += " µ" + strconv.Itoa(s.Micro)
	}
	return name
}
