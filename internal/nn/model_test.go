package nn

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/tensor"
)

// Loss computes the mean softmax cross-entropy of the model on (x, labels)
// without keeping backward state: the finite-difference probe of the
// gradient checks.
func (m *Model) Loss(x *tensor.Tensor4, labels []int) float64 {
	logits := m.Forward(x)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// numericalGrad estimates d loss / d w via central differences for a
// handful of weight coordinates.
func numericalGrad(m *Model, x *tensor.Tensor4, labels []int, slot, idx int) float64 {
	const eps = 1e-5
	w := m.Weights[slot]
	orig := w.Data[idx]
	w.Data[idx] = orig + eps
	lp := m.Loss(x, labels)
	w.Data[idx] = orig - eps
	lm := m.Loss(x, labels)
	w.Data[idx] = orig
	return (lp - lm) / (2 * eps)
}

// TestGradientCheckTinyConvNet validates the whole backward pass (conv,
// pool, FC, ReLU, softmax-CE) against central differences.
func TestGradientCheckTinyConvNet(t *testing.T) {
	spec := TinyConvNet()
	m := NewModel(spec, 42)
	rng := rand.New(rand.NewSource(7))
	x := tensor.Random4(4, 3, 12, 12, 1, 11)
	labels := make([]int, 4)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	_, grads := m.ForwardBackward(x, labels)
	for slot := range m.Weights {
		n := len(m.Weights[slot].Data)
		for trial := 0; trial < 6; trial++ {
			idx := rng.Intn(n)
			want := numericalGrad(m, x, labels, slot, idx)
			got := grads[slot].Data[idx]
			diff := math.Abs(got - want)
			scale := math.Max(1e-4, math.Max(math.Abs(got), math.Abs(want)))
			if diff/scale > 1e-3 {
				t.Errorf("slot %d idx %d: analytic %.8g vs numeric %.8g", slot, idx, got, want)
			}
		}
	}
}

// TestGradientCheckWithLRN covers the LRN backward derivation.
func TestGradientCheckWithLRN(t *testing.T) {
	spec := &Network{
		Name:  "lrnnet",
		Input: Shape{H: 6, W: 6, C: 4},
		Layers: []Layer{
			{Kind: Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 6},
			{Kind: LRN, Name: "lrn1"},
			{Kind: FC, Name: "fc1", OutN: 5},
		},
	}
	if err := spec.Infer(); err != nil {
		t.Fatal(err)
	}
	m := NewModel(spec, 3)
	rng := rand.New(rand.NewSource(17))
	x := tensor.Random4(3, 4, 6, 6, 1, 23)
	labels := []int{1, 4, 0}
	_, grads := m.ForwardBackward(x, labels)
	for slot := range m.Weights {
		for trial := 0; trial < 5; trial++ {
			idx := rng.Intn(len(m.Weights[slot].Data))
			want := numericalGrad(m, x, labels, slot, idx)
			got := grads[slot].Data[idx]
			diff := math.Abs(got - want)
			scale := math.Max(1e-4, math.Max(math.Abs(got), math.Abs(want)))
			if diff/scale > 1e-3 {
				t.Errorf("LRN net slot %d idx %d: analytic %.8g vs numeric %.8g", slot, idx, got, want)
			}
		}
	}
}

// TestGradientCheckMLP covers the pure-FC path including the first-layer
// ∆X skip.
func TestGradientCheckMLP(t *testing.T) {
	spec := MLP("m", 20, 16, 8, 4)
	m := NewModel(spec, 5)
	rng := rand.New(rand.NewSource(29))
	x := tensor.Random4(6, 20, 1, 1, 1, 31)
	labels := make([]int, 6)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	_, grads := m.ForwardBackward(x, labels)
	for slot := range m.Weights {
		for trial := 0; trial < 6; trial++ {
			idx := rng.Intn(len(m.Weights[slot].Data))
			want := numericalGrad(m, x, labels, slot, idx)
			got := grads[slot].Data[idx]
			diff := math.Abs(got - want)
			scale := math.Max(1e-4, math.Max(math.Abs(got), math.Abs(want)))
			if diff/scale > 1e-3 {
				t.Errorf("MLP slot %d idx %d: analytic %.8g vs numeric %.8g", slot, idx, got, want)
			}
		}
	}
}

// TestTrainingReducesLoss runs a short SGD loop on separable synthetic data.
func TestTrainingReducesLoss(t *testing.T) {
	spec := TinyConvNet()
	m := NewModel(spec, 1)
	// Synthetic task: label = argmax of channel means, learnable quickly.
	const b = 16
	x := tensor.Random4(b, 3, 12, 12, 1, 77)
	labels := make([]int, b)
	for n := 0; n < b; n++ {
		best, arg := math.Inf(-1), 0
		for c := 0; c < 3; c++ {
			var s float64
			for h := 0; h < 12; h++ {
				for w := 0; w < 12; w++ {
					s += x.At(n, c, h, w)
				}
			}
			if s > best {
				best, arg = s, c
			}
		}
		labels[n] = arg
	}
	first := m.Loss(x, labels)
	for it := 0; it < 60; it++ {
		_, grads := m.ForwardBackward(x, labels)
		m.ApplySGD(grads, 0.05)
	}
	last := m.Loss(x, labels)
	if last >= first*0.7 {
		t.Fatalf("SGD failed to reduce loss: %v → %v", first, last)
	}
}

func TestCloneSetWeightsRoundTrip(t *testing.T) {
	m := NewModel(TinyConvNet(), 9)
	ws := m.CloneWeights()
	m.Weights[0].Data[0] += 5
	if ws[0].Data[0] == m.Weights[0].Data[0] {
		t.Fatal("CloneWeights is not a deep copy")
	}
	m.SetWeights(ws)
	if m.Weights[0].Data[0] != ws[0].Data[0] {
		t.Fatal("SetWeights did not restore")
	}
}

// TestSoftmaxGradientSumsToZero: softmax-CE gradient columns sum to zero
// (probabilities minus one-hot).
func TestSoftmaxGradientSumsToZero(t *testing.T) {
	logits := tensor.Random(7, 5, 2, 123)
	_, d := SoftmaxCrossEntropy(logits, []int{0, 3, 6, 2, 1})
	for j := 0; j < 5; j++ {
		var s float64
		for i := 0; i < 7; i++ {
			s += d.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("column %d gradient sums to %v", j, s)
		}
	}
}

// TestSoftmaxLossNonNegativeAndFiniteOnExtremes guards numerical stability.
func TestSoftmaxLossNonNegativeAndFiniteOnExtremes(t *testing.T) {
	logits := tensor.New(3, 2)
	logits.Set(0, 0, 1e4)
	logits.Set(1, 1, -1e4)
	loss, d := SoftmaxCrossEntropy(logits, []int{0, 1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 {
		t.Fatalf("loss = %v", loss)
	}
	for _, v := range d.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("gradient has non-finite value %v", v)
		}
	}
}
