package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// TestMemoryPureBatchReplicatesModel: at Pr = 1 every process holds the
// whole model (the paper: "solutions that exploit pure data parallelism
// often replicate the whole model in each node").
func TestMemoryPureBatchReplicatesModel(t *testing.T) {
	net := nn.AlexNet()
	m := Memory(net, 2048, grid.Grid{Pr: 1, Pc: 512}, nil)
	if w := float64(net.TotalWeights()); m.WeightWords != w {
		t.Fatalf("pure batch weight words = %g, want %g", m.WeightWords, w)
	}
}

// TestMemoryModelShardCutsPr: the 1.5D scheme cuts model replication by
// exactly Pr.
func TestMemoryModelShardCutsPr(t *testing.T) {
	net := nn.AlexNet()
	f := func(prExp uint8) bool {
		pr := 1 << (int(prExp) % 7) // 1 … 64
		full := Memory(net, 1024, grid.Grid{Pr: 1, Pc: 64}, nil).WeightWords
		cut := Memory(net, 1024, grid.Grid{Pr: pr, Pc: 64}, nil).WeightWords
		return math.Abs(cut-full/float64(pr)) < 1e-9*full
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryDataReplicationGrowsWithPr: at fixed P, pushing Pr up means
// each sample's activations are held by more processes — the activation
// term per process stays B/Pc·d = B·d·Pr/P, growing linearly in Pr.
func TestMemoryDataReplicationGrowsWithPr(t *testing.T) {
	net := nn.AlexNet()
	const P, B = 256, 1024
	prev := 0.0
	for pr := 1; pr <= P; pr *= 4 {
		g := grid.Grid{Pr: pr, Pc: P / pr}
		act := Memory(net, B, g, nil).ActivationWords
		if act <= prev {
			t.Fatalf("activation words should grow with Pr: %g at Pr=%d after %g", act, pr, prev)
		}
		prev = act
	}
}

// TestMemoryLinearCombinationClaim: Section 4 — the 1.5D memory cost is a
// linear combination of the pure-batch and pure-model extremes. Checked
// term-by-term: weights interpolate as 1/Pr of the batch extreme;
// activations interpolate as Pr× the batch extreme.
func TestMemoryLinearCombinationClaim(t *testing.T) {
	net := nn.AlexNet()
	const P, B = 64, 512
	batchEnd := Memory(net, B, grid.Grid{Pr: 1, Pc: P}, nil)
	modelEnd := Memory(net, B, grid.Grid{Pr: P, Pc: 1}, nil)
	for _, pr := range []int{2, 4, 8, 16, 32} {
		g := grid.Grid{Pr: pr, Pc: P / pr}
		m := Memory(net, B, g, nil)
		wantW := batchEnd.WeightWords / float64(pr)
		if math.Abs(m.WeightWords-wantW) > 1e-9*wantW {
			t.Fatalf("Pr=%d: weights %g, want %g", pr, m.WeightWords, wantW)
		}
		wantA := batchEnd.ActivationWords * float64(pr)
		if math.Abs(m.ActivationWords-wantA) > 1e-9*wantA {
			t.Fatalf("Pr=%d: activations %g, want %g", pr, m.ActivationWords, wantA)
		}
		if modelEnd.WeightWords > batchEnd.WeightWords {
			t.Fatal("model extreme should hold fewer weights per process")
		}
	}
}

// TestMemoryNeverBelow2DBound: 1.5D replicates at least one matrix, so it
// can never beat the memory-optimal 2D footprint (the paper's "main
// advantage of 2D algorithms").
func TestMemoryNeverBelow2DBound(t *testing.T) {
	net := nn.AlexNet()
	f := func(gIdx uint8, bExp uint8) bool {
		grids := grid.Factorizations(256)
		g := grids[int(gIdx)%len(grids)]
		b := 256 << (int(bExp) % 4)
		bound := Memory2DLowerBound(net, b, g.P())
		m := Memory(net, b, g, nil)
		return m.TotalWords() >= bound-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryDomainKeepsFullWeightsButSlabActivations: domain layers
// replicate all weights (like batch) but hold only a 1/Pr activation slab
// plus halos.
func TestMemoryDomainKeepsFullWeightsButSlabActivations(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 8, Pc: 64}
	assign := ConvAssignment(net, Domain, Model)
	m := Memory(net, 512, g, assign)
	uniform := Memory(net, 512, g, nil)
	// Domain conv weights are 8× the sharded uniform conv weights; conv
	// weights are ~6% of AlexNet, so total weight words grow but stay
	// below full replication.
	if m.WeightWords <= uniform.WeightWords {
		t.Fatal("domain conv layers should hold more weight words than sharded ones")
	}
	if m.WeightWords >= float64(net.TotalWeights()) {
		t.Fatal("FC shards should keep total weights below full replication")
	}
	// Activation words shrink: conv activations dominate AlexNet and the
	// domain slab is 1/Pr of the uniform panel.
	if m.ActivationWords >= uniform.ActivationWords {
		t.Fatalf("domain slabs (%g) should beat replicated panels (%g)",
			m.ActivationWords, uniform.ActivationWords)
	}
	if m.TotalBytes() <= 0 {
		t.Fatal("bytes conversion broken")
	}
}

// TestMemoryGradientMirrorsWeights: gradient buffers match weight storage
// layer-by-layer under every strategy.
func TestMemoryGradientMirrorsWeights(t *testing.T) {
	net := nn.AlexNet()
	for _, assign := range []Assignment{nil, ConvAssignment(net, Domain, Model), ConvAssignment(net, BatchOnly, Model)} {
		m := Memory(net, 256, grid.Grid{Pr: 4, Pc: 16}, assign)
		if m.GradientWords != m.WeightWords {
			t.Fatalf("gradient words %g ≠ weight words %g", m.GradientWords, m.WeightWords)
		}
	}
}

// The one-stage MemoryStages estimate with one micro-batch must
// reproduce Memory exactly — every field, bit for bit — for both
// schedule shapes, any schedule stage count, and random nets, grids, and
// assignments.
func TestMemoryPipelineSingleReproducesMemory(t *testing.T) {
	f := func(seed int64, prRaw, pcRaw, bRaw uint8, stagesRaw uint8, shapeRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randomNetwork(rng)
		if net == nil {
			return true
		}
		g := grid.Grid{Pr: 1 + int(prRaw)%16, Pc: 1 + int(pcRaw)%16}
		B := g.Pc * (1 + int(bRaw)%32)
		assign := ConvAssignment(net, []Strategy{Model, Domain, BatchOnly}[int(seed%3+3)%3], Model)
		shape := timeline.GPipe
		if shapeRaw {
			shape = timeline.OneFOneB
		}
		sched := timeline.Schedule{Shape: shape, MicroBatches: 1, Stages: 1 + int(stagesRaw)%8}
		return singleStageMemory(net, B, g, assign, sched) == Memory(net, B, g, assign)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The activation high-water mark is monotone in the number of in-flight
// micro-batches: the first stage of a deeper 1f1b pipeline stashes more,
// and the gpipe flush (all M in flight) is the upper envelope.
func TestMemoryPipelineStashMonotone(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 8, Pc: 8}
	const B, M = 1024, 16
	assign := UniformAssignment(net, Model)
	L := len(net.WeightedLayers())
	// Stage 0 owns the first weighted layer alone at every depth, so only
	// its in-flight count changes with S.
	firstAlone := func(S int) stage.Partition {
		starts := make([]int, S)
		for k := range starts {
			starts[k] = k
		}
		p, err := stage.New(starts, L)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	grids := func(S int) []grid.Grid {
		gs := make([]grid.Grid, S)
		for k := range gs {
			gs[k] = g
		}
		return gs
	}
	prev := 0.0
	for _, S := range []int{2, 4, 8} {
		sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: M, Stages: S}
		if got, want := stageInFlight(sched, 0), S; got != want {
			t.Fatalf("1f1b S=%d M=%d: in-flight %d, want min(M,S)=%d", S, M, got, want)
		}
		act := MemoryStages(net, B, firstAlone(S), grids(S), assign, sched)[0].ActivationWords
		if act <= prev {
			t.Fatalf("1f1b S=%d: stash %g did not grow beyond %g", S, act, prev)
		}
		prev = act
	}
	gp := timeline.Schedule{Shape: timeline.GPipe, MicroBatches: M, Stages: 4}
	if got, want := stageInFlight(gp, 0), M; got != want {
		t.Fatalf("gpipe in-flight %d, want all %d", got, want)
	}
	gpAct := MemoryStages(net, B, firstAlone(4), grids(4), assign, gp)[0].ActivationWords
	if gpAct < prev {
		t.Fatalf("gpipe stash %g must be the upper envelope (1f1b deepest: %g)", gpAct, prev)
	}
	// Weight and gradient footprints are micro-batch independent.
	base := Memory(net, B, g, assign)
	pm := singleStageMemory(net, B, g, assign, gp)
	if pm.WeightWords != base.WeightWords || pm.GradientWords != base.GradientWords {
		t.Fatal("pipeline must not change weight/gradient footprints")
	}
}

// Invalid micro-batch counts fail loudly.
func TestMemoryPipelinePanicsOnBadM(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 4, Pc: 4}
	for _, sched := range []timeline.Schedule{
		{Shape: timeline.GPipe, MicroBatches: 0, Stages: 1},
		{Shape: timeline.GPipe, MicroBatches: 3, Stages: 1}, // 3 ∤ 64
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("M=%d: expected a panic", sched.MicroBatches)
				}
			}()
			singleStageMemory(net, 64, g, nil, sched)
		}()
	}
}

// singleStageMemory is MemoryStages' estimate for the one-stage pipeline
// of net on grid g.
func singleStageMemory(net *nn.Network, B int, g grid.Grid, assign Assignment, sched timeline.Schedule) MemoryEstimate {
	return MemoryStages(net, B, stage.Balanced(len(net.WeightedLayers()), 1), []grid.Grid{g}, assign, sched)[0]
}
