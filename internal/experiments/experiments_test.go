package experiments

import (
	"math"
	"strings"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/planner"
)

func TestTable1Renders(t *testing.T) {
	s := Default()
	out := s.Table1()
	for _, want := range []string{"AlexNet", "α = 2µs", "6 GB/s", "N = 1200000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4CurveShape(t *testing.T) {
	s := Default()
	pts := s.Fig4()
	if len(pts) != 12 { // 1 … 2048
		t.Fatalf("Fig4 has %d points", len(pts))
	}
	best := pts[0]
	for _, p := range pts {
		if p.EpochSeconds < best.EpochSeconds {
			best = p
		}
	}
	if best.B != 256 {
		t.Fatalf("best workload B = %d, want 256", best.B)
	}
	out := RenderFig4(pts)
	if !strings.Contains(out, "best workload") {
		t.Fatal("Fig4 rendering missing best-workload marker")
	}
}

func TestEq5CrossoverTable(t *testing.T) {
	s := Default()
	rows := s.Eq5()
	if len(rows) != 5 {
		t.Fatalf("Eq5 should cover 5 conv layers, got %d", len(rows))
	}
	byName := map[string]Eq5Row{}
	for _, r := range rows {
		byName[r.Layer] = r
	}
	// The paper's example: conv4 (3×3 on 13×13×384) favours model
	// parallelism for B ≤ ~12-13.
	if c := byName["conv4"].CrossoverB; c < 12 || c > 14 {
		t.Fatalf("conv4 crossover = %d", c)
	}
	// conv1 (11×11, giant activations) should essentially never favour
	// model parallelism.
	if byName["conv1"].CrossoverB > 1 {
		t.Fatalf("conv1 crossover = %d, want ≤ 1", byName["conv1"].CrossoverB)
	}
	if out := RenderEq5(rows); !strings.Contains(out, "conv4") {
		t.Fatal("Eq5 rendering incomplete")
	}
}

func TestStrongScalingFig6And7(t *testing.T) {
	s := Default()
	fig6, err := s.StrongScaling(planner.Uniform, false, 2048, StandardFig6Ps())
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := s.StrongScaling(planner.ConvBatch, false, 2048, StandardFig6Ps())
	if err != nil {
		t.Fatal(err)
	}
	// At P = 512 both modes beat pure batch; Fig. 7 beats Fig. 6.
	last6, last7 := fig6[len(fig6)-1], fig7[len(fig7)-1]
	if last6.TotalSpeedup <= 1 {
		t.Fatalf("Fig. 6 P=512 total speedup = %g", last6.TotalSpeedup)
	}
	if last7.CommSpeedup <= last6.CommSpeedup {
		t.Fatalf("Fig. 7 comm speedup (%g) should beat Fig. 6 (%g)",
			last7.CommSpeedup, last6.CommSpeedup)
	}
	out := RenderScaling("fig6", fig6, true, s.DatasetN)
	if !strings.Contains(out, "← best") {
		t.Fatal("scaling rendering missing best marker")
	}
	if csv := ScalingCSV(fig6); !strings.Contains(csv, "P,B,Pr,Pc") {
		t.Fatal("CSV header missing")
	}
}

func TestOverlapFig8(t *testing.T) {
	s := Default()
	plain, err := s.StrongScaling(planner.ConvBatch, false, 2048, []int{512})
	if err != nil {
		t.Fatal(err)
	}
	over, err := s.StrongScaling(planner.ConvBatch, true, 2048, []int{512})
	if err != nil {
		t.Fatal(err)
	}
	if over[0].Best.IterSeconds > plain[0].Best.IterSeconds {
		t.Fatal("overlap should not slow the best plan down")
	}
	if over[0].TotalSpeedup <= 1 {
		t.Fatalf("Fig. 8 overlapped speedup = %g, want > 1 (paper: 2.0×)", over[0].TotalSpeedup)
	}
}

func TestWeakScalingFig9(t *testing.T) {
	s := Default()
	res, err := s.WeakScaling(planner.Uniform, StandardFig9Pairs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("weak scaling points = %d", len(res))
	}
	// The largest configuration should benefit from integration.
	last := res[len(res)-1]
	if last.CommSpeedup <= 1 {
		t.Fatalf("P=%d B=%d comm speedup = %g", last.P, last.B, last.CommSpeedup)
	}
}

func TestBeyondBatchFig10(t *testing.T) {
	s := Default()
	res, err := s.BeyondBatch(512, StandardFig10Ps())
	if err != nil {
		t.Fatal(err)
	}
	// Iteration time must keep decreasing past P = B = 512.
	for i := 1; i < len(res); i++ {
		if res[i].Best.IterSeconds >= res[i-1].Best.IterSeconds {
			t.Fatalf("no scaling from P=%d to P=%d", res[i-1].P, res[i].P)
		}
	}
	// At P = 4096 the only feasible slab split is Pr = 8 — the paper's
	// "each image partitioned into 8 parts".
	last := res[len(res)-1]
	if last.Best.Grid.Pr != 8 {
		t.Fatalf("P=4096 best grid %v, want Pr=8", last.Best.Grid)
	}
	// Pure batch must be infeasible beyond P = B.
	for _, r := range res[1:] {
		if r.PureBatch != nil && r.PureBatch.Feasible {
			t.Fatalf("P=%d: pure batch should be infeasible", r.P)
		}
	}
}

// TestVerifyEnginesExactness: every executed configuration reproduces
// serial SGD, puts words on the wire, and is rendered with the equation
// it realizes.
func TestVerifyEnginesExactness(t *testing.T) {
	reps, err := VerifyEngines(3, 8, 5, BandwidthOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 8 {
		t.Fatalf("engine reports = %d, want 8", len(reps))
	}
	for _, r := range reps {
		if r.MaxWeightDev > 1e-9 {
			t.Fatalf("%s on %v deviates from serial by %g", r.Name, r.Grid, r.MaxWeightDev)
		}
		if r.WordsOnWire == 0 {
			t.Fatalf("%s on %v reported no communication", r.Name, r.Grid)
		}
	}
	out := RenderEngineReports(reps)
	for _, eq := range []string{"Eq. 3", "Eq. 4", "Eq. 7", "Eq. 8", "Eq. 9"} {
		if !strings.Contains(out, eq) {
			t.Fatalf("engine check rendering lacks %s:\n%s", eq, out)
		}
	}
}

// TestModelCheckAgreement: on the α = 0 machine each engine-check
// configuration's steady-state communication is the model's to ±2% (the
// few words of the scalar loss reduction). The exception is pure domain:
// the walk runs its FC layers replicated, so its residual is exactly minus
// their priced terms.
func TestModelCheckAgreement(t *testing.T) {
	reps, err := VerifyEngines(3, 8, 5, BandwidthOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		resid := r.Measured - r.Predicted
		if unsent := unsentDomainFC(r); unsent > 0 {
			if math.Abs(resid+unsent) > 1e-9*unsent {
				t.Fatalf("%s on %v: measured − predicted = %.6g s/step, want minus its Domain FC terms %.6g",
					r.Name, r.Grid, resid, unsent)
			}
			continue
		}
		if rel := resid / r.Predicted; math.Abs(rel) > 0.02 {
			t.Fatalf("%s on %v: measured %.4g vs predicted %.4g (%+.2f%%)",
				r.Name, r.Grid, r.Measured, r.Predicted, rel*100)
		}
	}
}

// TestVerifyEnginesLatencyResidual: with latency on, each configuration's
// measured communication exceeds its prediction by exactly the terms the
// model leaves out, each measured or counted alone: the per-step scalar
// loss all-reduce over the row group (nothing at Pc = 1, where the row
// group is one rank), one α per halo exchange when the column group has
// interior slabs (Pr ≥ 3: they send to both neighbours, where one message
// is priced), and minus the unsent Domain FC terms. The engine sends,
// per layer, every other message the formulas charge, and no other.
func TestVerifyEnginesLatencyResidual(t *testing.T) {
	m := machine.Machine{Name: "latency", Alpha: 2e-6, Beta: 1e-9, PeakFlops: 1e12}
	reps, err := VerifyEngines(3, 8, 5, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		g := r.Grid
		var loss float64
		for _, s := range mpi.NewWorld(g.P(), m).Run(func(p *mpi.Proc) {
			row, _ := g.Coords(p.Rank())
			parallel.GlobalLoss(p.CommFrom(g.RowGroup(row)), 1, 1, 1)
		}) {
			loss = max(loss, s.CommTime)
		}
		want := loss + m.Alpha*float64(interiorHaloSends(r)) - unsentDomainFC(r)
		if resid := r.Measured - r.Predicted; math.Abs(resid-want) > 1e-9*r.Measured {
			t.Fatalf("%s on %v: measured − predicted = %.6g s/step, want %.6g (loss all-reduce %.6g)",
				r.Name, g, resid, want, loss)
		}
	}
}

// unsentDomainFC is the priced communication of r's Domain FC layers,
// which the walk runs replicated over the column group: their halo is the
// whole panel it already holds, and their ∆W group is the row group,
// one rank on the P × 1 grid.
func unsentDomainFC(r EngineReport) float64 {
	var secs float64
	for _, lc := range costmodel.FlatEnv(r.Machine).FullIntegrated(r.Spec, r.Batch, r.Grid, r.Assign).Layers {
		if lc.Strategy == costmodel.Domain && r.Spec.Layers[lc.Index].Kind == nn.FC {
			secs += lc.TotalSeconds()
		}
	}
	return secs
}

// interiorHaloSends counts the halo exchanges r runs per step in which an
// interior slab sends a second message: every Domain conv's forward
// exchange and, past the first layer, its backward one — when Pr ≥ 3.
func interiorHaloSends(r EngineReport) int {
	if r.Grid.Pr < 3 {
		return 0
	}
	n := 0
	for k, li := range r.Spec.WeightedLayers() {
		if l := &r.Spec.Layers[li]; l.Kind == nn.Conv && r.Assign[li] == costmodel.Domain && l.KH/2 > 0 {
			n++
			if k > 0 {
				n++
			}
		}
	}
	return n
}
