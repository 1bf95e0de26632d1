// Multi-iteration pipeline schedules: the single-iteration layer list
// generalized to M micro-batches flowing through S pipeline stages.
//
// A Schedule instantiates the layer graph once per micro-batch (each
// micro-batch carries 1/M of the global batch, so callers price the
// per-layer durations at micro-batch size B/M), wires three families of
// dependency edges —
//
//   - stage order within a micro-batch: a micro-batch's forward chains
//     through the layers as in the single-iteration builder, and its
//     backward chains through them in reverse;
//   - resource contention across micro-batches: each stage owns one
//     compute pipe and one set of network lanes (StageResource), so two
//     micro-batches never compute on the same stage at once while
//     different stages run concurrently;
//   - the ∆W all-reduce deferred to the flush: gradients accumulate
//     locally across micro-batches and the per-layer GradReduce is paid
//     once, issued with the *last* micro-batch's backprop of that layer —
//
// and adds the shape-specific ordering edges of GPipe (fill–drain: a
// stage finishes all M forwards before its first backward) or 1F1B
// (steady state: stage s admits forward micro-batch m only after its
// backward of micro-batch m−(S−s) retired, capping the activation stash
// at S−s in-flight micro-batches).
//
// With M = 1 and S = 1 (Single) the builder lays out exactly one
// iteration: forward compute for layers 0..L−1, then backward compute for
// layers L−1..0, with communication wired by the overlap policy — the
// same events, order, and dependencies as an independent
// single-iteration builder (property-tested in schedule_test.go).
package timeline

import (
	"fmt"
	"sort"
	"strings"
)

// Shape selects the pipeline schedule shape.
type Shape int

const (
	// GPipe is the fill–drain schedule: every stage runs all M forward
	// micro-batches, then all M backward micro-batches. On S uniform
	// stages the compute bubble is exactly (S−1)/(M+S−1) of the pipe
	// time; the activation stash peaks at all M micro-batches in flight.
	GPipe Shape = iota
	// OneFOneB is the steady-state interleaving (one-forward-one-backward):
	// after a warm-up of S−s forwards, stage s alternates backward and
	// forward. Same bubble as GPipe on uniform stages, but the stash is
	// capped at min(M, S) in-flight micro-batches.
	OneFOneB
)

func (s Shape) String() string {
	switch s {
	case GPipe:
		return "gpipe"
	case OneFOneB:
		return "1f1b"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// ParseSchedule converts a flag value into a schedule Shape.
func ParseSchedule(s string) (Shape, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gpipe", "fill-drain", "":
		return GPipe, nil
	case "1f1b", "one-forward-one-backward", "interleaved":
		return OneFOneB, nil
	}
	return GPipe, fmt.Errorf("timeline: unknown schedule shape %q (want gpipe|1f1b)", s)
}

// MarshalText implements encoding.TextMarshaler so a Shape embeds in
// JSON specs as its canonical string. Out-of-range values error rather
// than emitting an unparseable "Shape(n)".
func (s Shape) MarshalText() ([]byte, error) {
	switch s {
	case GPipe, OneFOneB:
		return []byte(s.String()), nil
	}
	return nil, fmt.Errorf("timeline: cannot marshal invalid schedule shape %d", int(s))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseSchedule,
// so String → Parse round-trips through JSON exactly.
func (s *Shape) UnmarshalText(text []byte) error {
	v, err := ParseSchedule(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Schedule describes a multi-micro-batch pipeline over the layer graph.
type Schedule struct {
	Shape Shape
	// MicroBatches is M ≥ 1: the global batch is split into M
	// micro-batches and the layer durations handed to SimulatePipeline
	// are per-micro-batch (size B/M).
	MicroBatches int
	// Stages is S ≥ 1: the layer list is partitioned into S contiguous
	// stages, each owning its own compute pipe and network lanes. S = 1
	// is inter-batch pipelining on a single device group — micro-batches
	// overlap each other's communication and compute on shared lanes.
	Stages int
	// Partition, when non-empty, lists each stage's first layer index
	// (Partition[0] == 0, strictly increasing, len == Stages) — an
	// explicit contiguous layer→stage assignment, typically a
	// stage.Partition's Starts. When empty the layers fall back to the
	// count-balanced rule (layer i belongs to stage ⌊i·S/L⌋).
	Partition []int
}

// Single is the degenerate schedule: one micro-batch, one stage —
// exactly the single-iteration simulation.
func Single() Schedule { return Schedule{Shape: GPipe, MicroBatches: 1, Stages: 1} }

func (s Schedule) String() string {
	return fmt.Sprintf("%v M=%d S=%d", s.Shape, s.MicroBatches, s.Stages)
}

// Validate checks the schedule against a layer count.
func (s Schedule) Validate(numLayers int) error {
	if s.Shape != GPipe && s.Shape != OneFOneB {
		return fmt.Errorf("timeline: unknown schedule shape %v", s.Shape)
	}
	if s.MicroBatches < 1 {
		return fmt.Errorf("timeline: schedule needs ≥ 1 micro-batch, got %d", s.MicroBatches)
	}
	if s.Stages < 1 {
		return fmt.Errorf("timeline: schedule needs ≥ 1 stage, got %d", s.Stages)
	}
	if numLayers > 0 && s.Stages > numLayers {
		return fmt.Errorf("timeline: %d stages exceed %d layers (a stage cannot be empty)", s.Stages, numLayers)
	}
	if len(s.Partition) > 0 {
		if len(s.Partition) != s.Stages {
			return fmt.Errorf("timeline: partition %v has %d stages, schedule says %d", s.Partition, len(s.Partition), s.Stages)
		}
		if s.Partition[0] != 0 {
			return fmt.Errorf("timeline: partition must start at layer 0, got %v", s.Partition)
		}
		for k := 1; k < len(s.Partition); k++ {
			if s.Partition[k] <= s.Partition[k-1] {
				return fmt.Errorf("timeline: partition starts must be strictly increasing, got %v", s.Partition)
			}
			if numLayers > 0 && s.Partition[k] >= numLayers {
				return fmt.Errorf("timeline: partition start %d outside the %d-layer list", s.Partition[k], numLayers)
			}
		}
	}
	return nil
}

// stageOf returns the pipeline stage of layer i out of L: the owning
// range of the explicit Partition when one is set, otherwise the
// contiguous count-balanced rule (stage k covers layers
// ⌈kL/S⌉ … ⌈(k+1)L/S⌉−1).
func (s Schedule) stageOf(i, L int) int {
	if len(s.Partition) > 0 {
		return sort.SearchInts(s.Partition, i+1) - 1
	}
	return i * s.Stages / L
}
