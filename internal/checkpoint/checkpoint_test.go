package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/parallel"
	"dnnparallel/internal/tensor"
)

// Load reads a snapshot from r and validates its shape invariants: the
// reader of the files Save and SaveFile write.
func Load(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	for i, m := range s.Weights {
		if m == nil || m.Rows <= 0 || m.Cols <= 0 || len(m.Data) != m.Rows*m.Cols {
			return nil, fmt.Errorf("checkpoint: weight %d malformed", i)
		}
	}
	return &s, nil
}

func TestRoundTripExact(t *testing.T) {
	s := &Snapshot{
		Network: "TinyConvNet", Step: 7, Seed: 42,
		Weights: []*tensor.Matrix{tensor.Random(3, 5, 1, 1), tensor.Random(8, 2, 1, 2)},
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Network != s.Network || got.Step != s.Step || got.Seed != s.Seed {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range s.Weights {
		if got.Weights[i].MaxAbsDiff(s.Weights[i]) != 0 {
			t.Fatalf("weight %d not bit-identical after round trip", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	s := &Snapshot{Network: "m", Step: 1, Weights: []*tensor.Matrix{tensor.Random(2, 2, 1, 3)}}
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights[0].MaxAbsDiff(s.Weights[0]) != 0 {
		t.Fatal("file round trip changed weights")
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage input should fail")
	}
	if err := Save(&bytes.Buffer{}, &Snapshot{}); err == nil {
		t.Fatal("empty snapshot should fail")
	}
	if err := SaveFile(filepath.Join(t.TempDir(), "missing", "ckpt.gob"), &Snapshot{Weights: []*tensor.Matrix{tensor.New(1, 1)}}); err == nil {
		t.Fatal("saving into a missing directory should fail")
	}
}

// TestResumeMatchesUninterrupted: train 3+3 steps through a snapshot and
// land on the same weights as 6 uninterrupted steps (plain SGD is
// stateless, so the snapshot captures the full trainer state).
func TestResumeMatchesUninterrupted(t *testing.T) {
	spec := nn.TinyConvNet()
	ds := data.Synthetic(32, spec.Input, 10, 9)
	x := func(step int) (*tensor.Tensor4, []int) { return ds.Batch(step, 8) }

	full := nn.NewModel(spec, 5)
	for s := 0; s < 6; s++ {
		xb, lb := x(s)
		_, g := full.ForwardBackward(xb, lb)
		full.ApplySGD(g, 0.05)
	}

	half := nn.NewModel(spec, 5)
	for s := 0; s < 3; s++ {
		xb, lb := x(s)
		_, g := half.ForwardBackward(xb, lb)
		half.ApplySGD(g, 0.05)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &Snapshot{Network: spec.Name, Step: 3, Seed: 5, Weights: half.CloneWeights()}); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := nn.NewModel(spec, 5)
	resumed.SetWeights(snap.Weights)
	for s := snap.Step; s < 6; s++ {
		xb, lb := x(s)
		_, g := resumed.ForwardBackward(xb, lb)
		resumed.ApplySGD(g, 0.05)
	}
	for i := range full.Weights {
		if d := full.Weights[i].MaxAbsDiff(resumed.Weights[i]); d != 0 {
			t.Fatalf("resumed trajectory deviates at weight %d by %g", i, d)
		}
	}
}

// TestCrossEngineResume: a snapshot taken from a distributed run resumes
// serially onto the same trajectory — checkpoints are interchangeable
// across parallelization strategies because they all compute the same
// iteration.
func TestCrossEngineResume(t *testing.T) {
	spec := nn.MLP("m", 16, 8, 4)
	ds := data.Synthetic(32, spec.Input, 4, 11)
	cfg := parallel.Config{Spec: spec, Seed: 7, LR: 0.05, Steps: 3, BatchSize: 8}
	m := machine.Machine{Name: "t", Alpha: 1e-6, Beta: 1e-9, PeakFlops: 1}

	dist, err := parallel.RunFullIntegrated(mpi.NewWorld(4, m), cfg, ds, grid.Grid{Pr: 2, Pc: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &Snapshot{Network: spec.Name, Step: 3, Weights: dist.Weights}); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Continue serially from the distributed snapshot…
	resumed := nn.NewModel(spec, 7)
	resumed.SetWeights(snap.Weights)
	for s := 3; s < 6; s++ {
		xb, lb := ds.Batch(s, 8)
		_, g := resumed.ForwardBackward(xb, lb)
		resumed.ApplySGD(g, 0.05)
	}
	// …and compare with six uninterrupted serial steps.
	serialCfg := cfg
	serialCfg.Steps = 6
	want, err := parallel.RunSerial(serialCfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Weights {
		if d := want.Weights[i].MaxAbsDiff(resumed.Weights[i]); d > 1e-9 {
			t.Fatalf("cross-engine resume deviates at weight %d by %g", i, d)
		}
	}
}
