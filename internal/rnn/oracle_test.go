package rnn

import (
	"fmt"
	"reflect"
	"testing"

	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
)

// TestSharedSerialBatchOracle: the Elman and LSTM serial and batch runs
// share one body and reproduce the former per-model runs bit for bit —
// weights, losses and per-rank Stats — under SGD, momentum and Nesterov,
// with even and (at P = 5) uneven sequence shards.
func TestSharedSerialBatchOracle(t *testing.T) {
	optimizers := []struct {
		name string
		make nn.OptimizerFactory
	}{
		{"sgd", nil},
		{"momentum", func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} }},
		{"nesterov", func() nn.Optimizer { return &nn.Nesterov{LR: 0.05, Mu: 0.8} }},
	}
	type run func(w *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error)
	serial := func(f func(TrainConfig, *Sequences) (parallel.Result, error)) run {
		return func(_ *mpi.World, tc TrainConfig, ds *Sequences) (parallel.Result, error) { return f(tc, ds) }
	}
	engines := []struct {
		name      string
		got, want run
		ps        []int
	}{
		{"elman-serial", serial(RunSerial), serial(refRunSerial), []int{1}},
		{"elman-batch", RunBatch, refRunBatch, []int{1, 2, 4, 5}},
		{"lstm-serial", serial(RunLSTMSerial), serial(refRunLSTMSerial), []int{1}},
		{"lstm-batch", RunLSTMBatch, refRunLSTMBatch, []int{1, 2, 4, 5}},
	}
	cfg := Config{In: 6, Hidden: 8, Classes: 4, T: 4}
	ds := SyntheticSequences(cfg, 48, 31)
	for _, e := range engines {
		for _, opt := range optimizers {
			tc := TrainConfig{Cfg: cfg, Seed: 3, LR: 0.05, Steps: 3, BatchSize: 12, NewOptimizer: opt.make}
			for _, p := range e.ps {
				name := fmt.Sprintf("%s/%s/P=%d", e.name, opt.name, p)
				want, err := e.want(mpi.NewWorld(p, testMachine()), tc, ds)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := e.got(mpi.NewWorld(p, testMachine()), tc, ds)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Result differs from the reference run", name)
				}
			}
		}
	}
}
