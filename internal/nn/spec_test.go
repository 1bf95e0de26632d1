package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// TestAlexNetShapes pins the canonical AlexNet activation pipeline the
// paper's cost tables depend on.
func TestAlexNetShapes(t *testing.T) {
	n := AlexNet()
	want := map[string]Shape{
		"conv1": {55, 55, 96},
		"pool1": {27, 27, 96},
		"conv2": {27, 27, 256},
		"pool2": {13, 13, 256},
		"conv3": {13, 13, 384},
		"conv4": {13, 13, 384},
		"conv5": {13, 13, 256},
		"pool5": {6, 6, 256},
		"fc6":   {1, 1, 4096},
		"fc7":   {1, 1, 4096},
		"fc8":   {1, 1, 1000},
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		if w, ok := want[l.Name]; ok && l.Out != w {
			t.Errorf("%s out = %v, want %v", l.Name, l.Out, w)
		}
	}
}

// TestAlexNetWeights pins per-layer |W_i| (Eq. 2) and the ≈62 M total of
// the single-tower variant.
func TestAlexNetWeights(t *testing.T) {
	n := AlexNet()
	want := map[string]int{
		"conv1": 11 * 11 * 3 * 96,   // 34,848
		"conv2": 5 * 5 * 96 * 256,   // 614,400
		"conv3": 3 * 3 * 256 * 384,  // 884,736
		"conv4": 3 * 3 * 384 * 384,  // 1,327,104
		"conv5": 3 * 3 * 384 * 256,  // 884,736
		"fc6":   6 * 6 * 256 * 4096, // 37,748,736
		"fc7":   4096 * 4096,        // 16,777,216
		"fc8":   4096 * 1000,        // 4,096,000
	}
	total := 0
	for i := range n.Layers {
		l := &n.Layers[i]
		if w, ok := want[l.Name]; ok {
			if l.Weights() != w {
				t.Errorf("%s |W| = %d, want %d", l.Name, l.Weights(), w)
			}
			total += w
		} else if l.Weights() != 0 {
			t.Errorf("%s should be weightless, has %d", l.Name, l.Weights())
		}
	}
	if n.TotalWeights() != total {
		t.Errorf("TotalWeights = %d, want %d", n.TotalWeights(), total)
	}
	// The paper quotes 61 M for the grouped original; our ungrouped
	// single tower is 62.4 M. Keep it pinned so drift is visible.
	if n.TotalWeights() != 62367776 {
		t.Errorf("AlexNet total weights = %d, want 62367776", n.TotalWeights())
	}
}

// TestAlexNetFCDominance checks the structural fact the whole paper turns
// on: FC layers hold ~94% of AlexNet's weights while conv layers produce
// ~99% of the activations — which is why model parallelism belongs on FC
// layers and batch/domain parallelism on conv layers.
func TestAlexNetFCDominance(t *testing.T) {
	n := AlexNet()
	var fcW, convW, fcAct, convAct int
	for i := range n.Layers {
		l := &n.Layers[i]
		switch l.Kind {
		case FC:
			fcW += l.Weights()
			fcAct += l.OutSize()
		case Conv:
			convW += l.Weights()
			convAct += l.OutSize()
		}
	}
	if float64(fcW)/float64(fcW+convW) < 0.9 {
		t.Errorf("FC weight share = %v, expected > 0.9", float64(fcW)/float64(fcW+convW))
	}
	if float64(convAct)/float64(fcAct+convAct) < 0.95 {
		t.Errorf("conv activation share = %v, expected > 0.95", float64(convAct)/float64(fcAct+convAct))
	}
}

func TestVGG16Shape(t *testing.T) {
	n := VGG16()
	if got := n.Output(); got != (Shape{1, 1, 1000}) {
		t.Fatalf("VGG16 output = %v", got)
	}
	// VGG-16 has 138 M weights; without biases ≈ 138.3 M.
	if w := n.TotalWeights(); w < 130e6 || w > 140e6 {
		t.Fatalf("VGG16 weights = %d, want ≈138 M", w)
	}
	if len(n.ConvLayers()) != 13 || len(n.FCLayers()) != 3 {
		t.Fatalf("VGG16 layer counts conv=%d fc=%d", len(n.ConvLayers()), len(n.FCLayers()))
	}
}

func TestMLPBuilder(t *testing.T) {
	n := MLP("mlp", 784, 512, 256, 10)
	if got := n.Output(); got != (Shape{1, 1, 10}) {
		t.Fatalf("MLP output = %v", got)
	}
	if w := n.TotalWeights(); w != 784*512+512*256+256*10 {
		t.Fatalf("MLP weights = %d", w)
	}
}

func TestOneByOneNetHasZeroHaloLayers(t *testing.T) {
	n := OneByOneNet()
	count1x1 := 0
	for _, li := range n.ConvLayers() {
		l := &n.Layers[li]
		if l.KH == 1 && l.KW == 1 {
			count1x1++
		}
	}
	if count1x1 < 4 {
		t.Fatalf("OneByOneNet has %d 1x1 convs, want ≥ 4", count1x1)
	}
}

func TestInferErrors(t *testing.T) {
	bad := &Network{Name: "bad", Input: Shape{H: 4, W: 4, C: 1},
		Layers: []Layer{{Kind: Conv, Name: "c", KH: 9, KW: 9, Stride: 1, OutC: 2}}}
	if err := bad.Infer(); err == nil {
		t.Fatal("oversized kernel should fail inference")
	}
	empty := &Network{Name: "empty"}
	if err := empty.Infer(); err == nil {
		t.Fatal("empty input shape should fail inference")
	}
	noOutC := &Network{Name: "noc", Input: Shape{H: 4, W: 4, C: 1},
		Layers: []Layer{{Kind: Conv, Name: "c", KH: 3, KW: 3, Stride: 1}}}
	if err := noOutC.Infer(); err == nil {
		t.Fatal("conv without OutC should fail inference")
	}
}

// TestShapeChain verifies the d_{i-1}/d_i chaining invariant: each
// weighted layer's InSize matches the previous layer's OutSize.
func TestShapeChain(t *testing.T) {
	for _, n := range []*Network{AlexNet(), VGG16(), TinyConvNet(), OneByOneNet()} {
		prev := n.Input
		for i := range n.Layers {
			l := &n.Layers[i]
			if l.In != prev {
				t.Fatalf("%s layer %d In = %v, previous Out = %v", n.Name, i, l.In, prev)
			}
			prev = l.Out
		}
	}
}

// TestConvFLOPsFormula property: conv layer FLOPs = 2·|W|·OH·OW (a GEMM of
// the filter matrix against the im2col matrix).
func TestConvFLOPsFormula(t *testing.T) {
	f := func(kRaw, cRaw, ocRaw uint8) bool {
		k := 1 + int(kRaw)%5
		c := 1 + int(cRaw)%16
		oc := 1 + int(ocRaw)%32
		n := &Network{Input: Shape{H: 16, W: 16, C: c}, Layers: []Layer{
			{Kind: Conv, Name: "c", KH: k, KW: k, Stride: 1, Pad: k / 2, OutC: oc},
		}}
		if err := n.Infer(); err != nil {
			return true
		}
		l := &n.Layers[0]
		want := 2 * float64(l.Weights()) * float64(l.Out.H*l.Out.W)
		return l.ForwardFLOPsPerSample() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAlexNetTrainFLOPs pins the compute model's input. The literature's
// ≈1.43 GFLOP forward pass is for the *grouped* two-tower AlexNet; our
// ungrouped single tower doubles conv2/4/5 (forward ≈ 2.27 GFLOP), so
// training (3× forward for weighted layers) lands at ≈ 6.8 GFLOP/sample.
func TestAlexNetTrainFLOPs(t *testing.T) {
	n := AlexNet()
	f := n.TrainFLOPsPerSample()
	if f < 6.3e9 || f > 7.3e9 {
		t.Fatalf("AlexNet (ungrouped) train FLOPs/sample = %.3g, want ≈6.8e9", f)
	}
}

// TestVGG16TrainFLOPs: VGG-16 forward ≈ 31 GFLOP/sample, training ≈ 3×.
func TestVGG16TrainFLOPs(t *testing.T) {
	n := VGG16()
	f := n.TrainFLOPsPerSample()
	if f < 80e9 || f > 105e9 {
		t.Fatalf("VGG16 train FLOPs/sample = %.3g, want ≈93e9", f)
	}
}

// Shape labels, built with strconv, are byte-identical to the
// fmt.Sprintf("%dx%dx%d") they replaced, for negative, zero and extreme
// sizes.
func TestShapeStringMatchesFmt(t *testing.T) {
	vals := []int{0, 1, -1, 13, 224, -4096, math.MaxInt, math.MinInt}
	for i, h := range vals {
		s := Shape{H: h, W: vals[(i+3)%len(vals)], C: vals[(i+5)%len(vals)]}
		if got, want := s.String(), fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C); got != want {
			t.Fatalf("Shape.String = %q, want %q", got, want)
		}
	}
}
