// Package dnnparallel's root benchmark harness: one benchmark per table
// and figure of the paper's evaluation, plus substrate micro-benchmarks.
// Each figure benchmark reports its headline reproduction numbers as
// custom metrics (speedup_total, speedup_comm, …) so that
// `go test -bench=. -benchmem` regenerates the quantitative story of the
// paper alongside the timing of the harness itself. The textual figures
// are produced by cmd/dnnsim; EXPERIMENTS.md records paper-vs-measured.
package dnnparallel

import (
	"testing"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/compute"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/experiments"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/tensor"
)

// --- Table 1 ----------------------------------------------------------------

func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Default()
		if err := s.Machine.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = s.Table1()
	}
}

// --- Fig. 4: epoch time vs batch size ---------------------------------------

func BenchmarkFig4EpochTime(b *testing.B) {
	s := experiments.Default()
	var pts []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		pts = s.Fig4()
	}
	best := pts[0]
	for _, p := range pts {
		if p.EpochSeconds < best.EpochSeconds {
			best = p
		}
	}
	b.ReportMetric(float64(best.B), "best_batch")
	b.ReportMetric(best.EpochSeconds, "best_epoch_s")
	b.ReportMetric(pts[0].EpochSeconds/best.EpochSeconds, "spread_B1_vs_best")
}

// --- Eq. 5: model/batch crossover -------------------------------------------

func BenchmarkEq5Crossover(b *testing.B) {
	s := experiments.Default()
	var rows []experiments.Eq5Row
	for i := 0; i < b.N; i++ {
		rows = s.Eq5()
	}
	for _, r := range rows {
		if r.Layer == "conv4" {
			// Paper: model parallelism wins for B ≤ ~12 on 3×3@13×13×384.
			b.ReportMetric(float64(r.CrossoverB), "conv4_crossover_B")
		}
	}
}

// --- Figs. 6/7/8: strong scaling --------------------------------------------

func benchStrongScaling(b *testing.B, mode planner.Mode, overlap bool) {
	s := experiments.Default()
	var res []experiments.ScalingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = s.StrongScaling(mode, overlap, 2048, experiments.StandardFig6Ps())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res[len(res)-1] // P = 512, the paper's quoted point
	b.ReportMetric(last.TotalSpeedup, "P512_speedup_total")
	b.ReportMetric(last.CommSpeedup, "P512_speedup_comm")
	b.ReportMetric(float64(last.Best.Grid.Pr), "P512_best_Pr")
}

func BenchmarkFig6StrongScaling(b *testing.B)    { benchStrongScaling(b, planner.Uniform, false) }
func BenchmarkFig7ConvBatchFCModel(b *testing.B) { benchStrongScaling(b, planner.ConvBatch, false) }
func BenchmarkFig8Overlap(b *testing.B)          { benchStrongScaling(b, planner.ConvBatch, true) }

// --- Fig. 9: weak scaling ----------------------------------------------------

func BenchmarkFig9WeakScaling(b *testing.B) {
	s := experiments.Default()
	var res []experiments.ScalingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = s.WeakScaling(planner.Uniform, experiments.StandardFig9Pairs())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res[len(res)-1]
	b.ReportMetric(last.TotalSpeedup, "P2048_speedup_total")
	b.ReportMetric(last.CommSpeedup, "P2048_speedup_comm")
}

// --- Fig. 10: beyond-batch scaling -------------------------------------------

func BenchmarkFig10BeyondBatch(b *testing.B) {
	s := experiments.Default()
	var res []experiments.ScalingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = s.BeyondBatch(512, experiments.StandardFig10Ps())
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := res[0], res[len(res)-1]
	b.ReportMetric(first.Best.IterSeconds/last.Best.IterSeconds, "P512_to_P4096_scaling")
	b.ReportMetric(float64(last.Best.Grid.Pr), "P4096_image_parts")
}

// --- Executable engines (Figs. 1/2/3/5 as code) -------------------------------

func engineBenchSetup() (parallel.Config, *data.Dataset, machine.Machine) {
	spec := experiments.ReferenceConvNet()
	ds := data.Synthetic(32, spec.Input, spec.Output().C, 3)
	cfg := parallel.Config{Spec: spec, Seed: 4, LR: 0.05, Steps: 2, BatchSize: 8}
	return cfg, ds, machine.CoriKNL()
}

func BenchmarkEngineSerial(b *testing.B) {
	cfg, ds, _ := engineBenchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.RunSerial(cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBatch(b *testing.B) {
	cfg, ds, m := engineBenchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.RunBatch(mpi.NewWorld(4, m), cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineModel(b *testing.B) {
	cfg, ds, m := engineBenchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.RunModel(mpi.NewWorld(4, m), cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineDomain(b *testing.B) {
	cfg, ds, m := engineBenchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.RunDomain(mpi.NewWorld(4, m), cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineIntegrated15D(b *testing.B) {
	cfg, ds, m := engineBenchSetup()
	g := grid.Grid{Pr: 2, Pc: 2}
	for i := 0; i < b.N; i++ {
		if _, err := parallel.RunFullIntegrated(mpi.NewWorld(4, m), cfg, ds, g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkMatMulSerial128(b *testing.B) {
	x := tensor.Random(128, 128, 1, 1)
	y := tensor.Random(128, 128, 1, 2)
	b.SetBytes(int64(128 * 128 * 128 * 2 * 8))
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkMatMulParallel256(b *testing.B) {
	x := tensor.Random(256, 256, 1, 1)
	y := tensor.Random(256, 256, 1, 2)
	b.SetBytes(int64(256 * 256 * 256 * 2 * 8))
	for i := 0; i < b.N; i++ {
		tensor.MatMulParallel(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	x := tensor.Random4(8, 16, 27, 27, 1, 1)
	for i := 0; i < b.N; i++ {
		x.Im2Col(3, 3, 1, 1)
	}
}

func BenchmarkMPIAllReduce8(b *testing.B) {
	m := machine.CoriKNL()
	buf := make([]float64, 1<<14)
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(8, m)
		w.Run(func(p *mpi.Proc) {
			p.WorldComm().AllReduceSum(buf)
		})
	}
}

func BenchmarkMPIAllGather8(b *testing.B) {
	m := machine.CoriKNL()
	buf := make([]float64, 1<<11)
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(8, m)
		w.Run(func(p *mpi.Proc) {
			p.WorldComm().AllGather(buf)
		})
	}
}

func BenchmarkPlannerOptimizeP512(b *testing.B) {
	net := nn.AlexNet()
	opts := planner.DefaultOptions()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Optimize(net, 2048, 512, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostModelEq8(b *testing.B) {
	net := nn.AlexNet()
	m := machine.CoriKNL()
	g := grid.Grid{Pr: 16, Pc: 32}
	for i := 0; i < b.N; i++ {
		costmodel.FlatEnv(m).Integrated(net, 2048, g)
	}
}

func BenchmarkCollectiveFormulas(b *testing.B) {
	m := machine.CoriKNL()
	for i := 0; i < b.N; i++ {
		collective.AllReduce(512, 62.4e6, m)
		collective.AllGather(16, 1e6, m)
	}
}

func BenchmarkComputeModel(b *testing.B) {
	net := nn.AlexNet()
	c := compute.KNLCaffe()
	for i := 0; i < b.N; i++ {
		c.EpochTime(net, 256, 1200000)
	}
}

func BenchmarkSerialModelStep(b *testing.B) {
	spec := nn.TinyConvNet()
	m := nn.NewModel(spec, 1)
	ds := data.Synthetic(16, spec.Input, 10, 2)
	x, labels := ds.Batch(0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss, grads := m.ForwardBackward(x, labels)
		_ = loss
		m.ApplySGD(grads, 0.01)
	}
}
