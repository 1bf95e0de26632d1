package parallel

import (
	"math"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/data"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
)

// These tests tie the executable engines to the analytic cost model: the
// virtual communication time measured on the simulated cluster must match
// the Eq. 3/4/8 bandwidth predictions. Latency terms are zeroed (α = 0)
// because the engines batch gradients into one flattened all-reduce while
// the formulas charge one per layer; the bandwidth (volume) terms are the
// content of the paper's analysis.

// bwMachine has zero latency so only β terms matter.
func bwMachine() machine.Machine {
	return machine.Machine{Name: "bw-only", Alpha: 0, Beta: 1e-9, PeakFlops: 1e12}
}

// steadyStateComm measures per-step communication by running k and 2k
// steps and differencing, cancelling one-time costs (final weight
// assembly gathers).
func steadyStateComm(t *testing.T, run func(steps int) Result, k int) float64 {
	t.Helper()
	short := run(k)
	long := run(2 * k)
	var cShort, cLong float64
	for _, s := range short.Stats {
		if s.CommTime > cShort {
			cShort = s.CommTime
		}
	}
	for _, s := range long.Stats {
		if s.CommTime > cLong {
			cLong = s.CommTime
		}
	}
	return (cLong - cShort) / float64(k)
}

// TestBatchEngineCommMatchesEq4: the batch engine's measured per-step
// communication equals the Eq. 4 bandwidth term (one all-reduce of all
// weights; the +P words of the loss reduction are negligible).
func TestBatchEngineCommMatchesEq4(t *testing.T) {
	spec := nn.MLP("m", 64, 32, 16, 8)
	ds := data.Synthetic(64, spec.Input, 8, 7)
	m := bwMachine()
	const p = 4
	run := func(steps int) Result {
		cfg := Config{Spec: spec, Seed: 3, LR: 0.01, Steps: steps, BatchSize: 16}
		res, err := RunBatch(mpi.NewWorld(p, m), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	measured := steadyStateComm(t, run, 3)
	predicted := costmodel.FlatEnv(m).PureBatch(spec, 16, p).TotalSeconds()
	if rel := math.Abs(measured-predicted) / predicted; rel > 0.01 {
		t.Fatalf("batch engine comm %.6g vs Eq. 4 %.6g (rel %.3f)", measured, predicted, rel)
	}
}

// TestModelEngineCommMatchesEq3: the model engine's measured per-step
// communication equals the Eq. 3 bandwidth terms — per-layer activation
// all-gathers plus ∆X all-reduces skipping the first layer.
func TestModelEngineCommMatchesEq3(t *testing.T) {
	spec := nn.MLP("m", 64, 32, 16, 8)
	ds := data.Synthetic(64, spec.Input, 8, 11)
	m := bwMachine()
	const p = 4
	run := func(steps int) Result {
		cfg := Config{Spec: spec, Seed: 5, LR: 0.01, Steps: steps, BatchSize: 16}
		res, err := RunModel(mpi.NewWorld(p, m), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	measured := steadyStateComm(t, run, 3)
	predicted := costmodel.FlatEnv(m).PureModel(spec, 16, p).TotalSeconds()
	if rel := math.Abs(measured-predicted) / predicted; rel > 0.01 {
		t.Fatalf("model engine comm %.6g vs Eq. 3 %.6g (rel %.3f)", measured, predicted, rel)
	}
}

// TestIntegratedEngineCommMatchesEq8: the 1.5D engine's measured per-step
// communication on a Pr × Pc grid equals the Eq. 8 bandwidth terms.
func TestIntegratedEngineCommMatchesEq8(t *testing.T) {
	spec := nn.MLP("m", 64, 32, 16, 8)
	ds := data.Synthetic(64, spec.Input, 8, 13)
	m := bwMachine()
	for _, g := range []grid.Grid{{Pr: 2, Pc: 2}, {Pr: 4, Pc: 2}, {Pr: 2, Pc: 4}} {
		run := func(steps int) Result {
			cfg := Config{Spec: spec, Seed: 7, LR: 0.01, Steps: steps, BatchSize: 16}
			res, err := RunIntegrated15D(mpi.NewWorld(g.P(), m), cfg, ds, g)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		measured := steadyStateComm(t, run, 3)
		predicted := costmodel.FlatEnv(m).Integrated(spec, 16, g).TotalSeconds()
		// The loss all-reduce over the row group adds a few words; allow 2%.
		if rel := math.Abs(measured-predicted) / predicted; rel > 0.02 {
			t.Fatalf("grid %v: 1.5D engine comm %.6g vs Eq. 8 %.6g (rel %.3f)", g, measured, predicted, rel)
		}
	}
}

// TestDomainEngineHaloVolumeMatchesEq7: the domain engine's measured
// words-on-the-wire for the conv front match the Eq. 7 halo volumes:
// per conv layer and step, each interior boundary moves
// B·X_W·X_C·⌊k/2⌋ words forward and the same backward, and the weight
// all-reduce moves 2·(P−1)/P·|W| words per rank.
func TestDomainEngineHaloVolumeMatchesEq7(t *testing.T) {
	spec := domainNet()
	ds := data.Synthetic(32, spec.Input, 8, 17)
	m := bwMachine()
	const p, b = 2, 8
	run := func(steps int) int64 {
		cfg := Config{Spec: spec, Seed: 9, LR: 0.01, Steps: steps, BatchSize: b}
		res, err := RunDomain(mpi.NewWorld(p, m), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		var words int64
		for _, s := range res.Stats {
			words += s.WordsSent
		}
		return words
	}
	perStep := run(6) - run(3)
	perStepPerStepCount := float64(perStep) / 3

	// Expected per step, summed over all ranks:
	var want float64
	for k, li := range spec.ConvLayers() {
		l := &spec.Layers[li]
		if l.KH/2 == 0 {
			continue
		}
		// One interior boundary (p=2): both sides send halo rows forward;
		// the backward halo-gradient exchange happens for every conv layer
		// except the first (no ∆X is propagated past layer 1, matching the
		// i ≥ 2 bound of Eq. 3 that Eq. 7 inherits in our engines).
		fwd := float64(b) * float64(l.In.W*l.In.C) * float64(l.KH/2)
		want += 2 * fwd
		if k > 0 {
			want += 2 * fwd
		}
		// Weight all-reduce: each rank sends 2·(p−1)/p·|W| words.
		want += float64(p) * 2 * float64(p-1) / float64(p) * float64(l.Weights())
	}
	// FC path: the row gather before fc1 moves (p−1)/p·out words per rank
	// (Bruck), i.e. out/2 each at p=2, where out = B·d_flatten.
	flat := float64(b) * float64(spec.Layers[2].Out.Size())
	want += float64(p) * float64(p-1) / float64(p) * flat

	if rel := math.Abs(perStepPerStepCount-want) / want; rel > 0.02 {
		t.Fatalf("domain engine words/step = %.0f, Eq. 7 accounting = %.0f (rel %.3f)",
			perStepPerStepCount, want, rel)
	}
}
