package planner

import (
	"math"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

func opts(m Mode) Options {
	o := DefaultOptions()
	o.Mode = m
	return o
}

// TestOptimizeMatchesBruteForce: the returned best plan really is the
// minimum over all factorizations.
func TestOptimizeMatchesBruteForce(t *testing.T) {
	net := nn.AlexNet()
	for _, mode := range []Mode{Uniform, ConvBatch, Auto} {
		res, err := Optimize(net, 2048, 256, opts(mode))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		best := math.Inf(1)
		for _, p := range res.All {
			if p.Feasible && p.IterSeconds < best {
				best = p.IterSeconds
			}
		}
		if res.Best.IterSeconds != best {
			t.Fatalf("mode %v: Best %g ≠ brute-force min %g", mode, res.Best.IterSeconds, best)
		}
	}
}

// TestBestGridShiftsTowardModelWithP: the Fig. 6 trend — as P grows at
// fixed B, the communication-optimal Pr increases.
func TestBestGridShiftsTowardModelWithP(t *testing.T) {
	net := nn.AlexNet()
	o := opts(Uniform)
	prevPr := 0
	for _, P := range []int{8, 64, 512} {
		res, err := Optimize(net, 2048, P, o)
		if err != nil {
			t.Fatal(err)
		}
		// Find the comm-optimal grid (the paper's comm-speedup metric).
		best, bestComm := res.Best.Grid, math.Inf(1)
		for _, p := range res.All {
			if p.Feasible && p.CommSeconds < bestComm {
				best, bestComm = p.Grid, p.CommSeconds
			}
		}
		if best.Pr < prevPr {
			t.Fatalf("comm-optimal Pr decreased from %d to %d at P=%d", prevPr, best.Pr, P)
		}
		prevPr = best.Pr
	}
	if prevPr <= 1 {
		t.Fatalf("at P=512 the comm-optimal grid should have Pr > 1, got Pr=%d", prevPr)
	}
}

// TestIntegratedWinsAtP512 reproduces the Fig. 6/7 headline: at P=512,
// B=2048 the best plan beats pure batch in both modes, and the conv-batch
// split (Fig. 7) beats the uniform grid (Fig. 6).
func TestIntegratedWinsAtP512(t *testing.T) {
	net := nn.AlexNet()
	uni, err := Optimize(net, 2048, 512, opts(Uniform))
	if err != nil {
		t.Fatal(err)
	}
	totalU, commU := uni.Speedup()
	if totalU <= 1 || commU <= 1 {
		t.Fatalf("uniform mode speedups = %g total, %g comm; want > 1", totalU, commU)
	}
	cb, err := Optimize(net, 2048, 512, opts(ConvBatch))
	if err != nil {
		t.Fatal(err)
	}
	totalC, commC := cb.Speedup()
	if commC <= commU {
		t.Fatalf("conv-batch comm speedup %g should beat uniform %g (Fig. 7 vs Fig. 6)", commC, commU)
	}
	if cb.Best.IterSeconds > uni.Best.IterSeconds {
		t.Fatalf("conv-batch best %g should be ≤ uniform best %g", cb.Best.IterSeconds, uni.Best.IterSeconds)
	}
	if totalC <= 1 {
		t.Fatalf("conv-batch total speedup = %g, want > 1", totalC)
	}
}

// TestSmallPNoBenefit: at P=8 the computation dominates and pure batch is
// (near-)optimal — the Fig. 6(a) observation.
func TestSmallPNoBenefit(t *testing.T) {
	net := nn.AlexNet()
	res, err := Optimize(net, 2048, 8, opts(Uniform))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CompSeconds < res.Best.CommSeconds {
		t.Fatalf("at P=8 computation (%g) should dominate communication (%g)",
			res.Best.CompSeconds, res.Best.CommSeconds)
	}
	total, _ := res.Speedup()
	if total > 1.3 {
		t.Fatalf("at P=8 the integrated benefit should be marginal, got %g×", total)
	}
}

// TestBeyondBatchNeedsDomainOrModel: with P > B, pure batch and conv-batch
// are infeasible, but conv-domain scales (the Fig. 10 regime).
func TestBeyondBatchNeedsDomainOrModel(t *testing.T) {
	net := nn.AlexNet()
	if _, err := Optimize(net, 512, 4096, opts(ConvBatch)); err == nil {
		t.Fatal("conv-batch with P=4096 > B=512 should be infeasible")
	}
	res, err := Optimize(net, 512, 4096, opts(ConvDomain))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Grid.Pr < 8 {
		t.Fatalf("P=4096, B=512 requires Pr ≥ 8, planner chose %v", res.Best.Grid)
	}
	if res.PureBatch != nil && res.PureBatch.Feasible {
		t.Fatal("1×4096 should be infeasible at B=512")
	}
}

// TestBeyondBatchScalingContinues: Fig. 10 — iteration time keeps falling
// past P = B when domain parallelism supplies the extra processes.
func TestBeyondBatchScalingContinues(t *testing.T) {
	net := nn.AlexNet()
	o := opts(ConvDomain)
	prev := math.Inf(1)
	for _, P := range []int{512, 1024, 2048, 4096} {
		res, err := Optimize(net, 512, P, o)
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if res.Best.IterSeconds >= prev {
			t.Fatalf("iteration time stopped scaling at P=%d: %g ≥ %g", P, res.Best.IterSeconds, prev)
		}
		prev = res.Best.IterSeconds
	}
}

// TestAutoNeverWorseThanFixedModes: Auto has the superset of choices, so
// its best plan is at least as good as Uniform / ConvBatch / ConvDomain on
// any instance where those are feasible.
func TestAutoNeverWorseThanFixedModes(t *testing.T) {
	net := nn.AlexNet()
	cases := []struct{ B, P int }{{2048, 64}, {2048, 512}, {512, 256}, {256, 512}}
	for _, tc := range cases {
		auto, err := Optimize(net, tc.B, tc.P, opts(Auto))
		if err != nil {
			t.Fatalf("auto B=%d P=%d: %v", tc.B, tc.P, err)
		}
		for _, mode := range []Mode{Uniform, ConvBatch, ConvDomain} {
			res, err := Optimize(net, tc.B, tc.P, opts(mode))
			if err != nil {
				continue // mode infeasible on this instance
			}
			if auto.Best.IterSeconds > res.Best.IterSeconds*(1+1e-9) {
				t.Fatalf("B=%d P=%d: auto %g worse than %v %g",
					tc.B, tc.P, auto.Best.IterSeconds, mode, res.Best.IterSeconds)
			}
		}
	}
}

// TestAutoPrefersDomainOnEarlyConvAtScale: in the beyond-batch regime the
// Auto assignment should use Domain (not Model) for the large early conv
// layers — the Section 2.4 guidance.
func TestAutoPrefersDomainOnEarlyConvAtScale(t *testing.T) {
	net := nn.AlexNet()
	res, err := Optimize(net, 512, 2048, opts(Auto))
	if err != nil {
		t.Fatal(err)
	}
	conv1 := net.ConvLayers()[0]
	if s := res.Best.Assignment[conv1]; s != costmodel.Domain {
		t.Fatalf("conv1 assigned %v, want domain (grid %v)", s, res.Best.Grid)
	}
	// FC layers must be model-parallel.
	for _, li := range net.FCLayers() {
		if s := res.Best.Assignment[li]; s != costmodel.Model {
			t.Fatalf("fc layer %d assigned %v, want model", li, s)
		}
	}
}

// TestOverlapImprovesIterTime: Fig. 8 — overlap lowers (or keeps) the best
// iteration time.
func TestOverlapImprovesIterTime(t *testing.T) {
	net := nn.AlexNet()
	plain, err := Optimize(net, 2048, 512, opts(ConvBatch))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(ConvBatch)
	o.Overlap = true
	over, err := Optimize(net, 2048, 512, o)
	if err != nil {
		t.Fatal(err)
	}
	if over.Best.IterSeconds > plain.Best.IterSeconds {
		t.Fatalf("overlap made things worse: %g > %g", over.Best.IterSeconds, plain.Best.IterSeconds)
	}
	total, _ := over.Speedup()
	if total <= 1 {
		t.Fatalf("overlapped speedup %g, want > 1 (paper: 2.0×)", total)
	}
}

// TestDomainFeasibilityBound: Pr larger than the smallest conv input
// height is rejected in ConvDomain mode.
func TestDomainFeasibilityBound(t *testing.T) {
	net := nn.AlexNet() // smallest conv input height = 13 (conv4/conv5)
	p := Evaluate(net, 64, grid.Grid{Pr: 16, Pc: 4}, opts(ConvDomain))
	if p.Feasible {
		t.Fatal("Pr=16 > min conv height 13 should be infeasible in conv-domain mode")
	}
	p = Evaluate(net, 64, grid.Grid{Pr: 8, Pc: 8}, opts(ConvDomain))
	if !p.Feasible {
		t.Fatalf("Pr=8 should be feasible: %s", p.Reason)
	}
}

// TestPcBound: Pc > B is always infeasible.
func TestPcBound(t *testing.T) {
	net := nn.AlexNet()
	p := Evaluate(net, 16, grid.Grid{Pr: 1, Pc: 32}, opts(Uniform))
	if p.Feasible {
		t.Fatal("Pc=32 > B=16 should be infeasible")
	}
}

// TestEpochConversion: epoch time = iter time × ⌈N/B⌉.
func TestEpochConversion(t *testing.T) {
	net := nn.AlexNet()
	o := opts(Uniform)
	o.DatasetN = 1200000
	res, err := Optimize(net, 2048, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Best.IterSeconds * 586
	if math.Abs(res.Best.EpochSeconds-want) > 1e-9*want {
		t.Fatalf("epoch seconds %g, want %g", res.Best.EpochSeconds, want)
	}
}

// TestOptimizeValidation: degenerate inputs are rejected.
func TestOptimizeValidation(t *testing.T) {
	net := nn.AlexNet()
	if _, err := Optimize(net, 0, 8, opts(Uniform)); err == nil {
		t.Fatal("B=0 should error")
	}
	if _, err := Optimize(net, 8, 0, opts(Uniform)); err == nil {
		t.Fatal("P=0 should error")
	}
	bad := opts(Uniform)
	bad.Machine.Beta = 0
	if _, err := Optimize(net, 8, 8, bad); err == nil {
		t.Fatal("invalid machine should error")
	}
}

// Evaluate and EvaluateAt reject what Optimize rejects: micro-batches or
// stages without the timeline, and an invalid machine, give an
// infeasible plan whose Reason is Optimize's error — not a plan priced
// as if the option were absent, nor a panic. EvaluateAt runs one stage,
// so it never sees the stage count.
func TestEvaluateValidatesOptions(t *testing.T) {
	net := nn.AlexNet()
	const B = 2048
	g := grid.Grid{Pr: 16, Pc: 32}
	micro, staged, negAlpha := opts(Auto), opts(Auto), opts(Auto)
	micro.MicroBatches = []int{2}
	staged.StageCounts = []int{2}
	negAlpha.Machine.Alpha = -1
	for _, c := range []struct {
		name string
		o    Options
		at   bool
	}{{"M=2 without timeline", micro, true}, {"S=2 without timeline", staged, false}, {"alpha=-1", negAlpha, true}} {
		_, err := Optimize(net, B, g.P(), c.o)
		if err == nil {
			t.Fatalf("%s: Optimize accepts the options", c.name)
		}
		plans := map[string]Plan{"Evaluate": Evaluate(net, B, g, c.o)}
		if c.at {
			plans["EvaluateAt"] = EvaluateAt(net, B, g, grid.ColMajor, c.o)
		}
		for via, p := range plans {
			if p.Feasible || p.Reason != err.Error() || p.Grid != g || p.Batch != B {
				t.Errorf("%s via %s: feasible=%v grid %v B=%d reason %q, want infeasible %v B=%d with %q",
					c.name, via, p.Feasible, p.Grid, p.Batch, p.Reason, g, B, err)
			}
		}
	}
}

// TestPlanString smoke-tests the human-readable rendering.
func TestPlanString(t *testing.T) {
	net := nn.AlexNet()
	p := Evaluate(net, 2048, grid.Grid{Pr: 16, Pc: 32}, opts(Uniform))
	if p.String() == "" {
		t.Fatal("empty plan string")
	}
	bad := Evaluate(net, 16, grid.Grid{Pr: 1, Pc: 32}, opts(Uniform))
	if bad.String() == "" {
		t.Fatal("empty infeasible plan string")
	}
}
