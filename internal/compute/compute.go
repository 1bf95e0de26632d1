// Package compute models per-process computation time for DNN training.
//
// The paper measures one-epoch AlexNet time on a single Intel KNL with
// Intel Caffe for every batch size (its Fig. 4) and feeds that curve into
// the scaling studies. We have no KNL and no Caffe, so this package
// substitutes a parametric execution model with the same observable shape
// (DESIGN.md §2):
//
//	T_iter(b) = FLOPs(b) / (Peak · eff(b)) + |W|/UpdateRate + FixedIter
//	eff(b)    = EffMax · b/(b + BHalf) / (1 + SpillPenalty·(b/SpillB)²)
//
// The three effects this captures, and why they produce Fig. 4's shape:
//   - small-batch GEMMs under-utilize wide vector units (the b/(b+BHalf)
//     saturation) → epoch time falls as B grows;
//   - each iteration pays a fixed SGD-update + framework cost, amortized
//     over larger batches (the N/B·(update+fixed) term) → also falls;
//   - very large batches spill activation working sets out of MCDRAM
//     (the quadratic spill penalty) → epoch time rises again.
//
// The calibration constants in KNLCaffe reproduce the paper's measured
// curve qualitatively: minimum at B = 256 and roughly an order of
// magnitude between B = 1 and the minimum.
package compute

import (
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
)

// Model is a parametric single-process execution-time model.
type Model struct {
	// Peak is the per-process peak FLOP rate.
	Peak float64
	// EffMax is the large-GEMM fraction of peak actually achieved.
	EffMax float64
	// BHalf is the local batch size at which GEMM efficiency reaches half
	// of its saturated value.
	BHalf float64
	// SpillB and SpillPenalty model the working-set spill beyond fast
	// memory: efficiency is divided by 1 + SpillPenalty·(b/SpillB)².
	SpillB       float64
	SpillPenalty float64
	// UpdateRate is the SGD weight-update throughput in weights/second
	// (memory-bandwidth bound: read w, read ∆w, write w).
	UpdateRate float64
	// FixedIter is the per-iteration framework overhead in seconds.
	FixedIter float64
}

// KNLCaffe returns the model calibrated against the paper's Fig. 4
// (AlexNet, single KNL, Intel Caffe). Peak matches machine.CoriKNL.
func KNLCaffe() Model {
	return Model{
		Peak:         machine.CoriKNL().PeakFlops,
		EffMax:       0.55,
		BHalf:        10,
		SpillB:       896,
		SpillPenalty: 0.35,
		UpdateRate:   7.5e9,
		FixedIter:    5e-3,
	}
}

// Efficiency returns the modeled GEMM efficiency at local batch size b.
func (c Model) Efficiency(b float64) float64 {
	if b <= 0 {
		return c.EffMax / (1 + c.BHalf) // degenerate; avoids division by zero
	}
	sat := c.EffMax * b / (b + c.BHalf)
	spill := 1 + c.SpillPenalty*(b/c.SpillB)*(b/c.SpillB)
	return sat / spill
}

// GEMMTime returns the time to execute flops of GEMM work at local batch b.
func (c Model) GEMMTime(flops, b float64) float64 {
	return flops / (c.Peak * c.Efficiency(b))
}

// UpdateTime returns the SGD update time for the given number of locally
// owned weights.
func (c Model) UpdateTime(weights float64) float64 { return weights / c.UpdateRate }

// IterTime returns the single-process time of one training iteration of
// net at batch size b (the quantity the paper measures per point of
// Fig. 4).
func (c Model) IterTime(net *nn.Network, b int) float64 {
	flops := net.TrainFLOPsPerSample() * float64(b)
	return c.GEMMTime(flops, float64(b)) + c.UpdateTime(float64(net.TotalWeights())) + c.FixedIter
}

// EpochTime returns the single-process one-epoch time for n training
// samples at batch size b: ⌈n/b⌉ iterations (Fig. 4's y-axis).
func (c Model) EpochTime(net *nn.Network, b, n int) float64 {
	iters := (n + b - 1) / b
	return float64(iters) * c.IterTime(net, b)
}

// GridIterTime returns the per-process compute time of one iteration on a
// Pr × Pc grid: every process executes 1/(Pr·Pc) of the batch-B GEMM work
// at local-batch efficiency eff(B/Pc), updates its 1/Pr weight shard, and
// pays the fixed per-iteration overhead. This is the paper's use of the
// Fig. 4 data "for cases with the same computational workload".
func (c Model) GridIterTime(net *nn.Network, B int, g grid.Grid) float64 {
	localB := float64(B) / float64(g.Pc)
	flops := net.TrainFLOPsPerSample() * float64(B) / float64(g.P())
	return c.GEMMTime(flops, localB) +
		c.UpdateTime(float64(net.TotalWeights())/float64(g.Pr)) +
		c.FixedIter
}

// BackpropFraction is the share of GEMM compute spent in backprop: 2 of
// the 3 GEMMs per weighted layer (∆X and ∆W). Fig. 8 may overlap
// communication only with this fraction of the computation.
const BackpropFraction = 2.0 / 3.0

// LayerTime is the per-weighted-layer compute split needed by the
// event-driven timeline simulator (internal/timeline).
type LayerTime struct {
	Index int     // index into Network.Layers
	Fwd   float64 // forward GEMM seconds
	Bwd   float64 // ∆X + ∆W GEMM seconds plus the layer's weight-update share
}

// GridLayerTime returns the forward/backward compute split of one
// weighted layer at batch B on a Pr × Pc grid — the per-layer term of
// GridLayerTimes, exposed so stage-partitioned pricing can compute each
// layer's time on its own stage's grid with identical arithmetic.
func (c Model) GridLayerTime(l *nn.Layer, index, B int, g grid.Grid) LayerTime {
	localB := float64(B) / float64(g.Pc)
	scale := float64(B) / float64(g.P())
	fwd := c.GEMMTime(l.ForwardFLOPsPerSample()*scale, localB)
	return LayerTime{
		Index: index,
		Fwd:   fwd,
		Bwd:   2*fwd + c.UpdateTime(float64(l.Weights())/float64(g.Pr)),
	}
}

// GridUnweightedTime returns the compute of one unweighted layer
// (pooling etc.) at batch B on a Pr × Pc grid — the per-layer term of
// GridLayerTimes' residual overhead.
func (c Model) GridUnweightedTime(l *nn.Layer, B int, g grid.Grid) float64 {
	localB := float64(B) / float64(g.Pc)
	scale := float64(B) / float64(g.P())
	return c.GEMMTime(l.TrainFLOPsPerSample()*scale, localB)
}

// GridLayerTimes splits GridIterTime into per-weighted-layer forward and
// backward compute times for the same Pr × Pc grid, plus a residual
// overhead (the fixed per-iteration framework cost and the compute of
// unweighted layers such as pooling) that belongs to no single weighted
// layer. The sum of all layer times plus the overhead equals GridIterTime
// up to floating-point association.
//
// Each layer class (nn.Network.LayerClasses) is timed once: a later
// member copies its first member's split with its own Index, which is
// what GridLayerTime would return, because the split reads the layer's
// fields and never its name.
func (c Model) GridLayerTimes(net *nn.Network, B int, g grid.Grid) (times []LayerTime, overhead float64) {
	widx, class := net.WeightedLayers(), net.LayerClasses()
	times = make([]LayerTime, len(widx))
	for k, li := range widx {
		if r := class[k]; r != k {
			times[k] = times[r]
			times[k].Index = li
			continue
		}
		times[k] = c.GridLayerTime(&net.Layers[li], li, B, g)
	}
	overhead = c.FixedIter
	for i := range net.Layers {
		l := &net.Layers[i]
		if !l.HasWeights() {
			overhead += c.GridUnweightedTime(l, B, g)
		}
	}
	return times, overhead
}
