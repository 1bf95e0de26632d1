package costmodel

import (
	"testing"
	"testing/quick"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

// The Section 4 comparison between the paper's 1.5D algorithm and 2D
// SUMMA variants for the forward product Y = W·X.
//
// The paper's analysis makes the simplification d_i = d_{i−1} = d ("For
// simplicity assume that di = di−1"); we adopt it too, using d = d_i for
// every variant so the volumes are directly comparable. Per-process
// forward communication volumes on a Pr × Pc grid (m = d split over Pr,
// n = B split over Pc):
//
//   - 1.5D (ours):        (Pr−1)/Pr · B·d/Pc      (all-gather of the Y panel)
//   - stationary-A SUMMA: 2·B·d/Pr + B·d/Pc       (Y reduction + X panels)
//   - stationary-C SUMMA: |W|/Pr + B·d/Pc         (W panels + X panels)
//
// The claims verified below: stationary-A approaches 1.5D when Pr ≫ Pc
// but never beats it, and no 2D variant is strictly favorable in
// communication volume at any grid ("there is no regime where 2D becomes
// strictly favorable").

// forwardVolume15D returns the per-process forward-pass communication
// volume (words) of the 1.5D algorithm for layer l on grid g with global
// batch B: the all-gather of the local activation panel.
func forwardVolume15D(l *nn.Layer, B int, g grid.Grid) float64 {
	if g.Pr <= 1 {
		return 0
	}
	return float64(B) / float64(g.Pc) * float64(l.OutSize()) * float64(g.Pr-1) / float64(g.Pr)
}

// forwardVolumeSUMMAStationaryA returns the per-process forward volume
// (words) of stationary-A SUMMA: W stays put, X panels circulate along Pc
// and partial Y results reduce along Pr (the factor 2).
func forwardVolumeSUMMAStationaryA(l *nn.Layer, B int, g grid.Grid) float64 {
	d := float64(l.OutSize())
	bf := float64(B)
	return 2*bf*d/float64(g.Pr) + bf*d/float64(g.Pc)
}

// forwardVolumeSUMMAStationaryC returns the per-process forward volume
// (words) of stationary-C SUMMA: Y stays put, W panels circulate along Pr
// and X panels along Pc.
func forwardVolumeSUMMAStationaryC(l *nn.Layer, B int, g grid.Grid) float64 {
	d := float64(l.OutSize())
	return float64(l.Weights())/float64(g.Pr) + float64(B)*d/float64(g.Pc)
}

// summaComparison summarizes the Section 4 discussion for one layer.
type summaComparison struct {
	Vol15D     float64
	VolSUMMA_A float64
	VolSUMMA_C float64
	TwoDRatioA float64 // SUMMA-A / 1.5D volume
	TwoDRatioC float64 // SUMMA-C / 1.5D volume
	// WeightsBigger flags the |W_i| > B·d_i regime the paper discusses
	// (typical for FC layers at modest batch sizes).
	WeightsBigger bool
}

// compareSUMMA evaluates the three variants for layer l.
func compareSUMMA(l *nn.Layer, B int, g grid.Grid) summaComparison {
	v15 := forwardVolume15D(l, B, g)
	va := forwardVolumeSUMMAStationaryA(l, B, g)
	vc := forwardVolumeSUMMAStationaryC(l, B, g)
	c := summaComparison{
		Vol15D: v15, VolSUMMA_A: va, VolSUMMA_C: vc,
		WeightsBigger: float64(l.Weights()) > float64(B)*float64(l.OutSize()),
	}
	if v15 > 0 {
		c.TwoDRatioA = va / v15
		c.TwoDRatioC = vc / v15
	}
	return c
}

// TestNoRegimeWhere2DWins is the Section 4 claim: "there is no regime
// where 2D becomes strictly favorable in terms of communication volume."
// We sweep AlexNet layers, batch sizes, and grids and require
// vol(1.5D) ≤ vol(SUMMA-A) and vol(1.5D) ≤ vol(SUMMA-C).
func TestNoRegimeWhere2DWins(t *testing.T) {
	net := nn.AlexNet()
	f := func(liRaw, gRaw uint8, bRaw uint16) bool {
		widx := net.WeightedLayers()
		li := widx[int(liRaw)%len(widx)]
		grids := grid.Factorizations(1024)
		g := grids[int(gRaw)%len(grids)]
		if g.Pr == 1 || g.Pc == 1 {
			return true // 2D algorithms need a true 2D grid
		}
		b := 1 + int(bRaw)%8192
		c := compareSUMMA(&net.Layers[li], b, g)
		return c.Vol15D <= c.VolSUMMA_A+1e-9 && c.Vol15D <= c.VolSUMMA_C+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSUMMAApproaches15DWhenPrLarge: the paper notes stationary-A's cost
// "approaches 1.5D when pr ≫ pc but never surpasses it".
func TestSUMMAApproaches15DWhenPrLarge(t *testing.T) {
	net := nn.AlexNet()
	fc7 := net.FCLayers()[1]
	l := &net.Layers[fc7]
	wide := compareSUMMA(l, 4096, grid.Grid{Pr: 512, Pc: 2})
	tall := compareSUMMA(l, 4096, grid.Grid{Pr: 2, Pc: 512})
	if wide.TwoDRatioA > tall.TwoDRatioA {
		t.Fatalf("SUMMA-A/1.5D ratio should shrink as Pr grows: pr≫pc %g vs pc≫pr %g",
			wide.TwoDRatioA, tall.TwoDRatioA)
	}
	if wide.TwoDRatioA < 1 {
		t.Fatalf("SUMMA-A should never beat 1.5D, ratio %g", wide.TwoDRatioA)
	}
}

// TestSUMMAWeightsBiggerFlag sanity-checks the |W_i| vs B·d_i regime flag
// used in the Section 4 discussion.
func TestSUMMAWeightsBiggerFlag(t *testing.T) {
	net := nn.AlexNet()
	fc7 := &net.Layers[net.FCLayers()[1]] // 4096×4096: |W| = 16.7 M
	small := compareSUMMA(fc7, 64, grid.Grid{Pr: 4, Pc: 4})
	if !small.WeightsBigger {
		t.Fatal("fc7 at B=64: |W| = 16.7M > B·d = 262k, flag should be true")
	}
	conv1 := &net.Layers[net.ConvLayers()[0]] // |W| = 34848, d = 290400
	big := compareSUMMA(conv1, 64, grid.Grid{Pr: 4, Pc: 4})
	if big.WeightsBigger {
		t.Fatal("conv1 at B=64: B·d ≫ |W|, flag should be false")
	}
}
