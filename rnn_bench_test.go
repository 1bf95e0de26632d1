package dnnparallel

// Benchmarks for the recurrent-network extension (the paper's §1 note
// that the analysis "naturally extends" to RNNs). The headline metric:
// the comm-optimal Pr shrinks as sequence length grows, because BPTT
// reduces the shared weights once per iteration while hidden panels move
// every timestep.

import (
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/rnn"
)

func BenchmarkRNNBestGridVsT(b *testing.B) {
	m := machine.CoriKNL()
	base := rnn.Config{In: 1024, Hidden: 4096, Classes: 64}
	var prShort, prLong float64
	for i := 0; i < b.N; i++ {
		s := base
		s.T = 1
		g, _, ok := rnn.BestGrid(s, 256, 64, m)
		if !ok {
			b.Fatal("T=1: no grid fits")
		}
		prShort = float64(g.Pr)
		l := base
		l.T = 256
		g, _, ok = rnn.BestGrid(l, 256, 64, m)
		if !ok {
			b.Fatal("T=256: no grid fits")
		}
		prLong = float64(g.Pr)
	}
	b.ReportMetric(prShort, "bestPr_T1")
	b.ReportMetric(prLong, "bestPr_T256")
}

func BenchmarkRNNSerialBPTT(b *testing.B) {
	cfg := rnn.Config{In: 16, Hidden: 32, Classes: 8, T: 10}
	ds := rnn.SyntheticSequences(cfg, 32, 1)
	m := rnn.NewModel(cfg, 2)
	xs, labels := ds.Batch(0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss, grads := m.ForwardBackward(xs, labels)
		_ = loss
		_ = grads
	}
}

func BenchmarkRNNEngine15D(b *testing.B) {
	cfg := rnn.Config{In: 8, Hidden: 16, Classes: 4, T: 6}
	ds := rnn.SyntheticSequences(cfg, 32, 3)
	tc := rnn.TrainConfig{Cfg: cfg, Seed: 4, LR: 0.05, Steps: 2, BatchSize: 8}
	m := machine.CoriKNL()
	g := grid.Grid{Pr: 2, Pc: 2}
	for i := 0; i < b.N; i++ {
		if _, err := rnn.RunIntegrated15D(mpi.NewWorld(4, m), tc, ds, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRNNCost15D(b *testing.B) {
	cfg := rnn.Config{In: 1024, Hidden: 4096, Classes: 64, T: 64}
	m := machine.CoriKNL()
	g := grid.Grid{Pr: 8, Pc: 8}
	for i := 0; i < b.N; i++ {
		rnn.Cost15D(cfg, 256, g, m)
	}
}
