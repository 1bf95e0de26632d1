package nn

import (
	"fmt"
	"math"

	"dnnparallel/internal/tensor"
)

// Model is the executable serial reference implementation of a Network:
// real weights, real forward/backward passes. Every distributed engine in
// internal/parallel is validated against it for gradient-exactness.
//
// Weight layout per weighted layer (in WeightedLayers order):
//   - Conv: OC × (C·KH·KW) filter matrix (row-major by (c, ki, kj)),
//   - FC:   OutN × d_{i-1} weight matrix W_i (the paper's orientation,
//     Y = W·X with one sample per column).
//
// Nonlinearity policy: ReLU follows every weighted layer except the final
// one (whose outputs are the logits). Dropout layers are identity
// (inference scaling), keeping all engines deterministic and exactly
// comparable; the paper's communication analysis is unaffected, since
// dropout carries no weights.
type Model struct {
	Spec    *Network
	Weights []*tensor.Matrix

	weightSlot map[int]int // layer index → index into Weights
	lastW      int         // layer index of the final weighted layer
}

// NewModel initializes a model for spec with deterministic scaled-uniform
// (He-style) weights derived from seed.
func NewModel(spec *Network, seed int64) *Model {
	m := &Model{Spec: spec, weightSlot: make(map[int]int), lastW: -1}
	for _, li := range spec.WeightedLayers() {
		l := &spec.Layers[li]
		var w *tensor.Matrix
		switch l.Kind {
		case Conv:
			fanIn := l.KH * l.KW * l.In.C
			w = tensor.Random(l.OutC, fanIn, math.Sqrt(2.0/float64(fanIn)), seed+int64(li)*7919)
		case FC:
			fanIn := l.In.Size()
			w = tensor.Random(l.OutN, fanIn, math.Sqrt(2.0/float64(fanIn)), seed+int64(li)*7919)
		}
		m.weightSlot[li] = len(m.Weights)
		m.Weights = append(m.Weights, w)
		m.lastW = li
	}
	return m
}

// WeightSlot returns the index into Weights for layer li (must be a
// weighted layer).
func (m *Model) WeightSlot(li int) int {
	s, ok := m.weightSlot[li]
	if !ok {
		panic(fmt.Sprintf("nn: layer %d has no weights", li))
	}
	return s
}

// CloneWeights returns a deep copy of the weight list.
func (m *Model) CloneWeights() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(m.Weights))
	for i, w := range m.Weights {
		out[i] = w.Clone()
	}
	return out
}

// SetWeights installs a deep copy of ws.
func (m *Model) SetWeights(ws []*tensor.Matrix) {
	if len(ws) != len(m.Weights) {
		panic("nn: SetWeights length mismatch")
	}
	for i, w := range ws {
		m.Weights[i] = w.Clone()
	}
}

// layerCache holds the per-layer state the backward pass needs.
type layerCache struct {
	t4In   *tensor.Tensor4 // conv/pool/lrn input
	t4Pre  *tensor.Tensor4 // conv pre-activation output (for ReLU backward)
	matIn  *tensor.Matrix  // fc input
	matPre *tensor.Matrix  // fc pre-activation output
	arg    []int           // pool argmax
	denom  []float64       // lrn denominators
}

// Forward runs inference and returns the logits (classes × B).
func (m *Model) Forward(x *tensor.Tensor4) *tensor.Matrix {
	logits, _ := m.forward(x, false)
	return logits
}

func (m *Model) forward(x *tensor.Tensor4, keep bool) (*tensor.Matrix, []layerCache) {
	var caches []layerCache
	if keep {
		caches = make([]layerCache, len(m.Spec.Layers))
	}
	cur4 := x
	var cur *tensor.Matrix
	for li := range m.Spec.Layers {
		l := &m.Spec.Layers[li]
		switch l.Kind {
		case Conv:
			if cur4 == nil {
				panic(fmt.Sprintf("nn: conv layer %d after flatten", li))
			}
			w := m.Weights[m.weightSlot[li]]
			pre := ConvForward(cur4, w, l.KH, l.KW, l.Stride, l.Pad)
			if keep {
				caches[li].t4In = cur4
				caches[li].t4Pre = pre
			}
			if li != m.lastW {
				cur4 = ReLUForward4(pre)
			} else {
				cur4 = pre
			}
		case Pool:
			y, arg := MaxPoolForward(cur4, l.KH, l.KW, l.Stride)
			if keep {
				caches[li].t4In = cur4
				caches[li].arg = arg
			}
			cur4 = y
		case LRN:
			y, denom := LRNForward(cur4)
			if keep {
				caches[li].t4In = cur4
				caches[li].denom = denom
			}
			cur4 = y
		case Dropout:
			// Identity: see type comment.
		case FC:
			if cur == nil {
				cur = cur4.AsMatrix()
				cur4 = nil
			}
			w := m.Weights[m.weightSlot[li]]
			pre := tensor.MatMul(w, cur)
			if keep {
				caches[li].matIn = cur
				caches[li].matPre = pre
			}
			if li != m.lastW {
				cur = ReLUForward(pre)
			} else {
				cur = pre
			}
		}
	}
	if cur == nil {
		// Network ends with a conv/pool stack: flatten to logits.
		cur = cur4.AsMatrix()
	}
	return cur, caches
}

// ForwardBackward runs a full training step's math for one minibatch:
// forward pass, softmax cross-entropy against labels, backward pass.
// It returns the mean loss and the weight gradients, one per Weights slot,
// already averaged over the batch.
func (m *Model) ForwardBackward(x *tensor.Tensor4, labels []int) (float64, []*tensor.Matrix) {
	logits, caches := m.forward(x, true)
	loss, d := m.backward(logits, labels, caches)
	return loss, d
}

func (m *Model) backward(logits *tensor.Matrix, labels []int, caches []layerCache) (float64, []*tensor.Matrix) {
	loss, dcur := SoftmaxCrossEntropy(logits, labels)
	grads := make([]*tensor.Matrix, len(m.Weights))
	var dcur4 *tensor.Tensor4
	for li := len(m.Spec.Layers) - 1; li >= 0; li-- {
		l := &m.Spec.Layers[li]
		switch l.Kind {
		case FC:
			c := &caches[li]
			if li != m.lastW {
				dcur = ReLUBackward(dcur, c.matPre)
			}
			w := m.Weights[m.weightSlot[li]]
			grads[m.weightSlot[li]] = tensor.MatMulNT(dcur, c.matIn)
			// Skip ∆X for the very first layer of the network, mirroring
			// the i ≥ 2 lower bound of Eq. 3.
			if li == 0 {
				continue
			}
			dcur = tensor.MatMulTN(w, dcur)
			// If the previous layer is spatial, reshape back to NCHW.
			if prev := m.prevSpatial(li); prev != nil {
				dcur4 = tensor.FromMatrix(dcur, prev.C, prev.H, prev.W)
				dcur = nil
			}
		case Dropout:
			// Identity.
		case LRN:
			c := &caches[li]
			dcur4 = LRNBackward(dcur4, c.t4In, c.denom)
		case Pool:
			c := &caches[li]
			dcur4 = MaxPoolBackward(dcur4, c.arg, c.t4In)
		case Conv:
			c := &caches[li]
			if li != m.lastW {
				dcur4 = ReLUBackward4(dcur4, c.t4Pre)
			}
			w := m.Weights[m.weightSlot[li]]
			if li == 0 {
				grads[m.weightSlot[li]] = ConvGradWeights(c.t4In, dcur4, l.KH, l.KW, l.Stride, l.Pad)
				continue
			}
			dx, dw := ConvBackward(c.t4In, w, dcur4, l.KH, l.KW, l.Stride, l.Pad)
			grads[m.weightSlot[li]] = dw
			dcur4 = dx
		}
	}
	return loss, grads
}

// prevSpatial returns the output shape of the nearest spatial (non-FC,
// non-dropout) layer before li, or nil when the network input feeds li
// through FC layers only.
func (m *Model) prevSpatial(li int) *Shape {
	for j := li - 1; j >= 0; j-- {
		switch m.Spec.Layers[j].Kind {
		case Conv, Pool, LRN:
			return &m.Spec.Layers[j].Out
		case FC:
			return nil
		}
	}
	if m.Spec.Input.H > 1 || m.Spec.Input.W > 1 {
		s := m.Spec.Input
		return &s
	}
	return nil
}

// ApplySGD performs the minibatch SGD update of Eq. 1:
// w ← w − η·∆w (grads are already batch-averaged).
func (m *Model) ApplySGD(grads []*tensor.Matrix, lr float64) {
	if len(grads) != len(m.Weights) {
		panic("nn: ApplySGD gradient count mismatch")
	}
	for i, g := range grads {
		m.Weights[i].AXPY(-lr, g)
	}
}
