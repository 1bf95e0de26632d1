package compute

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

// TestFig4ShapeMinimumAt256 pins the calibrated Fig. 4 shape: one-epoch
// AlexNet time is minimized at B = 256 over the paper's sweep
// {1, 2, 4, …, 2048}.
func TestFig4ShapeMinimumAt256(t *testing.T) {
	c := KNLCaffe()
	net := nn.AlexNet()
	const n = 1200000
	bestB, bestT := 0, math.Inf(1)
	for b := 1; b <= 2048; b *= 2 {
		if tt := c.EpochTime(net, b, n); tt < bestT {
			bestB, bestT = b, tt
		}
	}
	if bestB != 256 {
		t.Fatalf("epoch-time minimum at B = %d, paper measured 256", bestB)
	}
}

// TestFig4Spread: the paper's curve spans roughly an order of magnitude
// between B = 1 and the minimum (log-scale axis 10^3.5 … 10^4.5).
func TestFig4Spread(t *testing.T) {
	c := KNLCaffe()
	net := nn.AlexNet()
	const n = 1200000
	t1 := c.EpochTime(net, 1, n)
	t256 := c.EpochTime(net, 256, n)
	if ratio := t1 / t256; ratio < 5 || ratio > 30 {
		t.Fatalf("epoch-time spread B=1/B=256 = %g, want ≈10 (5–30 accepted)", ratio)
	}
	// Large batches must rise again (the right side of Fig. 4).
	t2048 := c.EpochTime(net, 2048, n)
	if t2048 <= t256 {
		t.Fatalf("B=2048 (%g) should be slower than B=256 (%g)", t2048, t256)
	}
}

// TestEfficiencyMonotoneThenSpills: efficiency rises with batch size up to
// the spill region then declines.
func TestEfficiencyMonotoneThenSpills(t *testing.T) {
	c := KNLCaffe()
	prev := 0.0
	for b := 1.0; b <= 256; b *= 2 {
		e := c.Efficiency(b)
		if e <= prev {
			t.Fatalf("efficiency not increasing at b=%g", b)
		}
		if e <= 0 || e > c.EffMax {
			t.Fatalf("efficiency %g out of (0, EffMax]", e)
		}
		prev = e
	}
	if c.Efficiency(4096) >= c.Efficiency(512) {
		t.Fatal("efficiency should decline in the spill region")
	}
}

// TestGridIterTimeLimits: a 1×1 grid reproduces the single-process
// iteration time; scaling P with fixed local batch strictly reduces
// per-process compute.
func TestGridIterTimeLimits(t *testing.T) {
	c := KNLCaffe()
	net := nn.AlexNet()
	single := c.IterTime(net, 256)
	viaGrid := c.GridIterTime(net, 256, grid.Grid{Pr: 1, Pc: 1})
	if math.Abs(single-viaGrid) > 1e-12*single {
		t.Fatalf("1×1 grid iter time %g ≠ single-process %g", viaGrid, single)
	}
	t8 := c.GridIterTime(net, 2048, grid.Grid{Pr: 1, Pc: 8})
	t64 := c.GridIterTime(net, 2048, grid.Grid{Pr: 1, Pc: 64})
	if t64 >= t8 {
		t.Fatalf("more processes should cut compute: P=8 %g vs P=64 %g", t8, t64)
	}
}

// TestGridIterTimeModelShardCutsUpdate: increasing Pr at fixed Pc shrinks
// the weight-update term (each process owns 1/Pr of W).
func TestGridIterTimeModelShardCutsUpdate(t *testing.T) {
	c := KNLCaffe()
	net := nn.AlexNet()
	f := func(prRaw uint8) bool {
		pr := 1 << (1 + int(prRaw)%6)
		a := c.GridIterTime(net, 1024, grid.Grid{Pr: pr, Pc: 8})
		b := c.GridIterTime(net, 1024, grid.Grid{Pr: 2 * pr, Pc: 8})
		return b < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestComputeDominatesAtSmallP / comm at large P: the Fig. 6 narrative.
// (Communication values come from costmodel; here we just check the
// compute side scales the way the narrative requires.)
func TestComputeScalesDownWithP(t *testing.T) {
	c := KNLCaffe()
	net := nn.AlexNet()
	tP8 := c.GridIterTime(net, 2048, grid.Grid{Pr: 1, Pc: 8})
	tP512 := c.GridIterTime(net, 2048, grid.Grid{Pr: 1, Pc: 512})
	if tP8 < 10*tP512 {
		t.Fatalf("compute should fall ≳10× from P=8 (%g) to P=512 (%g)", tP8, tP512)
	}
}

func TestEpochTimeIterCount(t *testing.T) {
	c := KNLCaffe()
	net := nn.MLP("m", 16, 8)
	it := c.IterTime(net, 10)
	ep := c.EpochTime(net, 10, 95) // ⌈95/10⌉ = 10 iterations
	if math.Abs(ep-10*it) > 1e-12*ep {
		t.Fatalf("EpochTime = %g, want %g", ep, 10*it)
	}
}

func TestUpdateAndGEMMTimePositive(t *testing.T) {
	c := KNLCaffe()
	if c.UpdateTime(62.4e6) <= 0 || c.GEMMTime(1e9, 64) <= 0 {
		t.Fatal("non-positive time")
	}
	if c.Efficiency(0) <= 0 {
		t.Fatal("degenerate efficiency must stay positive")
	}
}

// TestCalibrateLocalProducesSaneModel: the measured-host calibration runs
// quickly and yields a physically plausible model whose epoch curve keeps
// the Fig. 4 U-shape.
func TestCalibrateLocalProducesSaneModel(t *testing.T) {
	c := CalibrateLocal(96, 200*time.Millisecond)
	if c.Peak <= 0 || c.Peak > 1e16 {
		t.Fatalf("calibrated peak %g implausible", c.Peak)
	}
	if c.BHalf <= 0 || c.BHalf > 256 {
		t.Fatalf("calibrated BHalf %g implausible", c.BHalf)
	}
	// Efficiency must still saturate monotonically before the spill.
	if c.Efficiency(64) <= c.Efficiency(1) {
		t.Fatal("calibrated efficiency not increasing")
	}
	// And the epoch curve keeps its qualitative shape: large-batch spill
	// slower than the mid-range.
	net := nn.MLP("m", 512, 512, 64)
	if c.EpochTime(net, 4096, 100000) <= c.EpochTime(net, 256, 100000) {
		t.Fatal("spill region should still slow very large batches")
	}
}

// TestCalibrateLocalDefaults: zero arguments fall back to sane defaults.
func TestCalibrateLocalDefaults(t *testing.T) {
	c := CalibrateLocal(0, 0)
	if c.Peak <= 0 {
		t.Fatal("defaulted calibration failed")
	}
}

// TestGridLayerTimesConservation: the per-layer split plus the residual
// overhead reassembles GridIterTime on every grid shape.
func TestGridLayerTimesConservation(t *testing.T) {
	c := KNLCaffe()
	for _, net := range []*nn.Network{nn.AlexNet(), nn.MLP("m", 512, 1024, 512, 64)} {
		for _, g := range []grid.Grid{{Pr: 1, Pc: 256}, {Pr: 8, Pc: 32}, {Pr: 256, Pc: 1}} {
			times, overhead := c.GridLayerTimes(net, 2048, g)
			if len(times) != len(net.WeightedLayers()) {
				t.Fatalf("%s %v: %d layer times, want %d", net.Name, g, len(times), len(net.WeightedLayers()))
			}
			sum := overhead
			for _, lt := range times {
				if lt.Fwd <= 0 || lt.Bwd <= lt.Fwd {
					t.Fatalf("%s %v layer %s: implausible split fwd=%g bwd=%g", net.Name, g, net.Layers[lt.Index].Name, lt.Fwd, lt.Bwd)
				}
				sum += lt.Fwd + lt.Bwd
			}
			want := c.GridIterTime(net, 2048, g)
			if diff := math.Abs(sum-want) / want; diff > 1e-12 {
				t.Fatalf("%s %v: per-layer sum %g ≠ GridIterTime %g (rel Δ %g)", net.Name, g, sum, want, diff)
			}
		}
	}
}
