// Package timeline is a discrete-event simulator for one training
// iteration: per-layer forward/backward compute events and per-layer
// communication events (all-gather, all-reduce, halo exchange) are
// scheduled on two serialized resources — a compute pipe and a network
// link — under a configurable overlap policy.
//
// It replaces the one-line Fig. 8 idealization of
// costmodel.IterationTotals (exposed = max(0, bwdComm − bwdComp)) with a
// per-layer model that can express what the closed form cannot:
//
//   - per-layer exposure: an all-gather blocks the *next* layer's forward
//     compute, so a single oversized activation panel shows up as a stall
//     in the right place rather than being averaged away;
//   - serialization at small per-rank work: when α-dominated messages
//     queue up on the link faster than backprop retires GEMMs, the
//     network backlog drains after the last GEMM and the iteration
//     becomes communication-bound layer by layer, exactly the regime the
//     paper observes at large P;
//   - pipelined scenarios: PolicyFull removes the forward all-gather
//     barrier, modeling the asynchronous/local-update schemes of the
//     related work (see PAPERS.md).
//
// The simulator is deterministic: events are scheduled greedily
// (non-idling) with earliest-start-time order, ties broken by issue
// order, so a given layer list and policy always produce the same
// schedule.
package timeline

import "fmt"

// Resource is an execution lane. On the paper's flat α–β machine the
// model has one compute pipe and one network link per process; on a
// hierarchical machine.Topology the single link splits into one lane
// per link level (node, rack, spine, …), so collectives on different
// levels contend realistically — an intra-node all-reduce does not
// queue behind a rack-uplink one, and a rack uplink can be the
// bottleneck while the node links idle. The scheduler serializes each
// lane independently and accepts any non-negative Resource values that
// appear in the event list.
//
// A pipeline schedule (SimulatePipeline) replicates the whole lane set
// per pipeline stage: stage s's lanes are StageResource(base, s), so
// micro-batches contend within a stage but stages run concurrently —
// the resource model of S device groups each with its own compute pipe
// and network links. Stage 0's lanes are the base values, which keeps
// single-stage schedules bit-identical to the single-iteration ones.
type Resource int

// MaxNetworkLevels is the number of per-level link lanes reserved in
// the base lane set — it mirrors machine.MaxLevels, the depth cap of a
// hierarchical topology.
const MaxNetworkLevels = 6

const (
	Compute Resource = iota
	// Network is the single link of a flat machine. Layers without a
	// per-level split schedule all communication here.
	Network
	// networkLevel0 is the first of the MaxNetworkLevels per-level link
	// lanes; layers carrying a Levels split schedule each portion of a
	// collective on the lane of its level (NetworkLevel).
	networkLevel0

	// numBaseResources is the stride of the per-stage resource encoding:
	// stage s's copy of a base lane is base + s·numBaseResources.
	numBaseResources = networkLevel0 + MaxNetworkLevels
)

// NetworkLevel returns the link lane of hierarchy level i (innermost
// first, matching machine.Topology.Levels order).
func NetworkLevel(i int) Resource {
	if i < 0 || i >= MaxNetworkLevels {
		panic(fmt.Sprintf("timeline: network level %d outside [0,%d)", i, MaxNetworkLevels))
	}
	return networkLevel0 + Resource(i)
}

// StageResource returns pipeline stage s's copy of a base lane.
// StageResource(base, 0) == base.
func StageResource(base Resource, stage int) Resource {
	if base < 0 || base >= numBaseResources {
		panic(fmt.Sprintf("timeline: %v is not a base resource", base))
	}
	if stage < 0 {
		panic(fmt.Sprintf("timeline: negative pipeline stage %d", stage))
	}
	return base + Resource(stage)*numBaseResources
}

// Base returns the lane kind, stripping the pipeline stage.
func (r Resource) Base() Resource { return r % numBaseResources }

// PipelineStage returns the pipeline stage the lane belongs to (0 for
// the base lanes of a single-stage schedule).
func (r Resource) PipelineStage() int { return int(r) / int(numBaseResources) }

func (r Resource) String() string {
	if r < 0 {
		return fmt.Sprintf("Resource(%d)", int(r))
	}
	var name string
	switch base := r.Base(); base {
	case Compute:
		name = "compute"
	case Network:
		name = "network"
	default:
		name = fmt.Sprintf("net-l%d", int(base-networkLevel0))
	}
	if s := r.PipelineStage(); s > 0 {
		return fmt.Sprintf("%s#%d", name, s)
	}
	return name
}

// Kind labels what an event models, so reports can name spans.
type Kind int

const (
	FwdComp Kind = iota
	BwdComp
	AllGather  // forward activation all-gather (model parallelism)
	FwdHalo    // forward input halo exchange (domain parallelism)
	ActReduce  // backprop ∆X all-reduce (model parallelism)
	GradReduce // ∆W all-reduce (batch parallelism)
	BwdHalo    // backward output halo exchange (domain parallelism)
	FwdXfer    // inter-stage activation handoff (pipeline boundary, forward)
	BwdXfer    // inter-stage ∆X handoff (pipeline boundary, backward)
)

func (k Kind) String() string {
	switch k {
	case FwdComp:
		return "fwd"
	case BwdComp:
		return "bwd"
	case AllGather:
		return "allgather"
	case FwdHalo:
		return "halo→"
	case ActReduce:
		return "∆X allred"
	case GradReduce:
		return "∆W allred"
	case BwdHalo:
		return "halo←"
	case FwdXfer:
		return "xfer→"
	case BwdXfer:
		return "xfer←"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one unit of work before scheduling. An event's identity is
// its index in the list handed to Simulate; reports render its label
// from the layer and micro-batch (Result.SpanName).
type Event struct {
	Layer    int // index into the Layer slice the events were built from
	Micro    int // micro-batch index (0 in single-iteration schedules)
	Kind     Kind
	Resource Resource
	Duration float64
	Deps     []int // indices of the events that must complete before this one starts
}

// Span is a scheduled event.
type Span struct {
	Event
	Start, End float64
}
