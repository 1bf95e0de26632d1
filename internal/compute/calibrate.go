package compute

import (
	"time"

	"dnnparallel/internal/tensor"
)

// CalibrateLocal reproduces the paper's methodology on the host running
// this binary: where the authors measured AlexNet iteration times with
// Intel Caffe on a KNL (their Fig. 4 input), we measure this machine's
// actual GEMM throughput across batch sizes with the internal/tensor
// kernels and fit the Model's efficiency curve to it. The result can
// drive every scaling experiment with *measured* rather than modeled
// compute constants (dnnsim -exp fig4 -calibrate).
//
// The fit: for each local batch b we time Y = W·X with W d×d and X d×b
// (d fixed) through tensor.MatMul, the banded GEMM the engines run,
// convert to achieved FLOP/s, and set
//
//	Peak·EffMax  = max achieved rate,
//	BHalf        = the b at which the achieved rate is half the max
//	               (interpolated),
//
// keeping the spill parameters at their defaults (host DRAM behaviour at
// toy sizes does not expose an MCDRAM-style cliff).
//
// A product above the GEMM's banding threshold runs on up to GOMAXPROCS
// cores, so on a multi-core host the fitted Peak is that of the whole
// host, as the paper's Fig. 4 measured a whole KNL node.
func CalibrateLocal(d int, budget time.Duration) Model {
	if d <= 0 {
		d = 192
	}
	if budget <= 0 {
		budget = 500 * time.Millisecond
	}
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128}
	rates := make([]float64, len(batches))
	deadline := time.Now().Add(budget)
	perPoint := budget / time.Duration(len(batches))

	w := tensor.Random(d, d, 1, 1)
	for i, b := range batches {
		x := tensor.Random(d, b, 1, int64(b))
		flopsPer := 2 * float64(d) * float64(d) * float64(b)
		var reps int
		start := time.Now()
		stop := start.Add(perPoint)
		for time.Now().Before(stop) && time.Now().Before(deadline) {
			tensor.MatMul(w, x)
			reps++
		}
		if reps == 0 {
			tensor.MatMul(w, x)
			reps = 1
		}
		elapsed := time.Since(start).Seconds()
		rates[i] = flopsPer * float64(reps) / elapsed
	}

	// Max achieved rate ⇒ Peak·EffMax.
	maxRate := rates[0]
	for _, r := range rates {
		if r > maxRate {
			maxRate = r
		}
	}
	// Find where the rate crosses half of max, interpolating in b.
	bHalf := float64(batches[0])
	for i := 0; i < len(batches)-1; i++ {
		if rates[i] <= maxRate/2 && rates[i+1] > maxRate/2 {
			lo, hi := float64(batches[i]), float64(batches[i+1])
			rl, rh := rates[i], rates[i+1]
			frac := (maxRate/2 - rl) / (rh - rl)
			bHalf = lo + frac*(hi-lo)
			break
		}
	}
	if rates[0] > maxRate/2 {
		// Already above half speed at b = 1: tiny saturation constant.
		bHalf = 0.5
	}

	ref := KNLCaffe()
	return Model{
		Peak:         maxRate / ref.EffMax, // keep EffMax's meaning: fraction of Peak
		EffMax:       ref.EffMax,
		BHalf:        bHalf,
		SpillB:       ref.SpillB,
		SpillPenalty: ref.SpillPenalty,
		UpdateRate:   ref.UpdateRate,
		FixedIter:    ref.FixedIter,
	}
}
