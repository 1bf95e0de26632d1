package costmodel

import (
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// Per-process memory model of the Section 4 discussion: "the 1.5D
// matrix-multiplication algorithms used by our integrated parallel
// approach cut down the model replication cost by a factor of pr, at the
// cost of an increase in data replication by a factor of pr … our memory
// costs are simply a linear combination of the memory costs of these two
// extremes of pure data and pure model parallelism."
//
// Accounting, in words per process:
//   - L_M layers: weight shard |W_i|/Pr plus an equal gradient buffer;
//     input and output activation panels d_{i−1}·B/Pc and d_i·B/Pc (full
//     rows — the Pr-fold data replication of the 1.5D layout);
//   - L_D layers: full replicated weights |W_i| (+gradient); activation
//     slabs d_{i−1}·B/(Pc·Pr) and d_i·B/(Pc·Pr) plus halo rows;
//   - BatchOnly layers: full weights (+gradient); activations
//     d·B/P (the pure batch-parallel slice).
type MemoryEstimate struct {
	WeightWords     float64
	GradientWords   float64
	ActivationWords float64
}

// TotalWords returns the summed per-process footprint in words.
func (m MemoryEstimate) TotalWords() float64 {
	return m.WeightWords + m.GradientWords + m.ActivationWords
}

// TotalBytes converts the footprint to bytes at the machine word size.
func (m MemoryEstimate) TotalBytes() float64 {
	return m.TotalWords() * machine.WordBytes
}

// Memory estimates the per-process memory of training net at global batch
// B on grid g under the Eq. 9 assignment (nil ⇒ all layers L_M).
func Memory(net *nn.Network, B int, g grid.Grid, assign Assignment) MemoryEstimate {
	return memoryLayers(net, B, g, assign, net.WeightedLayers())
}

// memoryLayers is Memory restricted to a subset of the weighted layers —
// the footprint of one pipeline stage, which holds only its own layers'
// weights and activations.
func memoryLayers(net *nn.Network, B int, g grid.Grid, assign Assignment, widx []int) MemoryEstimate {
	var m MemoryEstimate
	localB := float64(B) / float64(g.Pc)
	for _, li := range widx {
		l := &net.Layers[li]
		s := Model
		if assign != nil {
			if v, ok := assign[li]; ok {
				s = v
			}
		}
		w := float64(l.Weights())
		din := float64(l.InSize())
		dout := float64(l.OutSize())
		switch s {
		case Model:
			m.WeightWords += w / float64(g.Pr)
			m.GradientWords += w / float64(g.Pr)
			m.ActivationWords += localB * (din + dout)
		case Domain:
			m.WeightWords += w
			m.GradientWords += w
			slab := localB * (din + dout) / float64(g.Pr)
			halo := 0.0
			if l.Kind == nn.Conv && g.Pr > 1 {
				halo = localB * float64(l.In.W*l.In.C) * float64(l.KH/2) * 2
			}
			m.ActivationWords += slab + halo
		case BatchOnly:
			m.WeightWords += w
			m.GradientWords += w
			m.ActivationWords += float64(B) / float64(g.P()) * (din + dout)
		}
	}
	return m
}

// stageInFlight returns the peak in-flight micro-batch count of pipeline
// stage k: a gpipe fill–drain stashes all M everywhere, while 1f1b's
// warm-up admits S−k forwards into stage k before its first backward, so
// earlier stages stash more — the classic 1F1B depth gradient.
func stageInFlight(sched timeline.Schedule, k int) int {
	if sched.Shape == timeline.OneFOneB {
		if d := sched.Stages - k; d < sched.MicroBatches {
			return d
		}
	}
	return sched.MicroBatches
}

// Memory2DLowerBound returns the memory-optimal footprint the paper
// credits to 2D algorithms: every matrix stored exactly once across the
// machine, (Σ|W_i| · 2 + Σ B·(d_{i−1}+d_i)) / P words per process.
// 1.5D is never below this bound (it replicates at least one matrix).
func Memory2DLowerBound(net *nn.Network, B, P int) float64 {
	var words float64
	for _, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		words += 2 * float64(l.Weights())
		words += float64(B) * float64(l.InSize()+l.OutSize())
	}
	return words / float64(P)
}
