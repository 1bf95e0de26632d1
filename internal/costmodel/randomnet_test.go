package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

// randomNetwork builds a random valid conv+fc stack — the cost-model
// identities must hold for arbitrary architectures, not just AlexNet.
func randomNetwork(rng *rand.Rand) *nn.Network {
	n := &nn.Network{
		Name:  "random",
		Input: nn.Shape{H: 16 + 8*rng.Intn(8), W: 16 + 8*rng.Intn(8), C: 1 + rng.Intn(8)},
	}
	convs := 1 + rng.Intn(4)
	for i := 0; i < convs; i++ {
		k := []int{1, 3, 5}[rng.Intn(3)]
		n.Layers = append(n.Layers, nn.Layer{
			Kind: nn.Conv, Name: fmt.Sprintf("conv%d", i),
			KH: k, KW: k, Stride: 1, Pad: k / 2, OutC: 4 << rng.Intn(5),
		})
		if rng.Intn(2) == 0 {
			n.Layers = append(n.Layers, nn.Layer{
				Kind: nn.Pool, Name: fmt.Sprintf("pool%d", i), KH: 2, KW: 2, Stride: 2,
			})
		}
	}
	fcs := 1 + rng.Intn(3)
	for i := 0; i < fcs; i++ {
		n.Layers = append(n.Layers, nn.Layer{
			Kind: nn.FC, Name: fmt.Sprintf("fc%d", i), OutN: 16 << rng.Intn(7),
		})
	}
	if err := n.Infer(); err != nil {
		return nil
	}
	return n
}

// randomBlockNetwork is randomNetwork with repeated blocks, ResNet- and
// VGG-style: a conv stem, a block of one to three same-shape convs
// repeated two to four times (its first repetition reads the stem's
// channel count, so it may differ from the rest), an optional pool, and
// an FC tail whose hidden width may repeat — so layer classes
// (nn.Network.LayerClasses) have several members.
func randomBlockNetwork(rng *rand.Rand) *nn.Network {
	n := &nn.Network{
		Name:  "random-blocks",
		Input: nn.Shape{H: 16 + 8*rng.Intn(4), W: 16 + 8*rng.Intn(4), C: 1 + rng.Intn(4)},
	}
	n.Layers = append(n.Layers, nn.Layer{
		Kind: nn.Conv, Name: "stem", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8 << rng.Intn(2),
	})
	ks := make([]int, 1+rng.Intn(3))
	for i := range ks {
		ks[i] = []int{1, 3, 5}[rng.Intn(3)]
	}
	c := 4 << rng.Intn(3)
	for r, reps := 0, 2+rng.Intn(3); r < reps; r++ {
		for i, k := range ks {
			n.Layers = append(n.Layers, nn.Layer{
				Kind: nn.Conv, Name: fmt.Sprintf("block%d_%d", r, i),
				KH: k, KW: k, Stride: 1, Pad: k / 2, OutC: c,
			})
		}
	}
	if rng.Intn(2) == 0 {
		n.Layers = append(n.Layers, nn.Layer{Kind: nn.Pool, Name: "pool", KH: 2, KW: 2, Stride: 2})
	}
	w := 16 << rng.Intn(4)
	for i := 0; i < 1+rng.Intn(3); i++ {
		n.Layers = append(n.Layers, nn.Layer{Kind: nn.FC, Name: fmt.Sprintf("fc%d", i), OutN: w})
	}
	n.Layers = append(n.Layers, nn.Layer{Kind: nn.FC, Name: "classifier", OutN: 10})
	if err := n.Infer(); err != nil {
		return nil
	}
	return n
}

// TestRandomNetsIntegratedLimits: Eq. 8's Pr=1 ⇒ Eq. 4 and Pc=1 ⇒ Eq. 3
// reductions hold for random architectures.
func TestRandomNetsIntegratedLimits(t *testing.T) {
	f := func(seed int64, pRaw uint8, bRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randomNetwork(rng)
		if net == nil {
			return true
		}
		p := 2 + int(pRaw)%62
		b := 1 + int(bRaw)%512
		eq8b := FlatEnv(knl()).Integrated(net, b, grid.Grid{Pr: 1, Pc: p}).TotalSeconds()
		eq4 := FlatEnv(knl()).PureBatch(net, b, p).TotalSeconds()
		if math.Abs(eq8b-eq4) > 1e-12*math.Max(1, eq4) {
			return false
		}
		eq8m := FlatEnv(knl()).Integrated(net, b, grid.Grid{Pr: p, Pc: 1}).TotalSeconds()
		eq3 := FlatEnv(knl()).PureModel(net, b, p).TotalSeconds()
		return math.Abs(eq8m-eq3) < 1e-12*math.Max(1, eq3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomNetsBreakdownConsistency: for any net, grid, and assignment,
// forward + backward partitions total, grad-reduce is a subset, and all
// costs are non-negative and finite.
func TestRandomNetsBreakdownConsistency(t *testing.T) {
	strategies := []Strategy{Model, Domain, BatchOnly}
	f := func(seed int64, gRaw uint8, bRaw uint16, sRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randomNetwork(rng)
		if net == nil {
			return true
		}
		grids := grid.Factorizations(64)
		g := grids[int(gRaw)%len(grids)]
		b := g.Pc * (1 + int(bRaw)%64)
		assign := make(Assignment)
		for _, li := range net.WeightedLayers() {
			if net.Layers[li].Kind == nn.Conv {
				assign[li] = strategies[(int(sRaw)+li)%len(strategies)]
			} else {
				assign[li] = Model
			}
		}
		bd := FlatEnv(knl()).FullIntegrated(net, b, g, assign)
		total := bd.TotalSeconds()
		if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 {
			return false
		}
		if math.Abs(bd.ForwardSeconds()+bd.BackwardSeconds()-total) > 1e-12*math.Max(1, total) {
			return false
		}
		return bd.GradReduceSeconds() >= 0 && bd.GradReduceSeconds() <= total+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomNetsMemoryMonotone: for any net, more Pr ⇒ fewer weight words
// per process (uniform model assignment).
func TestRandomNetsMemoryMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randomNetwork(rng)
		if net == nil {
			return true
		}
		prev := math.Inf(1)
		for _, pr := range []int{1, 2, 4, 8} {
			m := Memory(net, 64, grid.Grid{Pr: pr, Pc: 8}, nil)
			if m.WeightWords >= prev {
				return false
			}
			prev = m.WeightWords
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
