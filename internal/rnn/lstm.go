package rnn

import (
	"fmt"
	"math"

	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// LSTM sequence classifier. The four gate pre-activations are computed by
// one packed matrix W (4h × (in+h), gate order i, f, o, g) applied to
// z_t = [x_t; h_{t−1}]:
//
//	a_t = W·z_t
//	i = σ(a_i), f = σ(a_f), o = σ(a_o), g = tanh(a_g)
//	c_t = f ⊙ c_{t−1} + i ⊙ g
//	h_t = o ⊙ tanh(c_t)
//	ŷ   = softmax(W_hy·h_T)
//
// The packed layout matters for the paper's analysis: the whole recurrent
// weight block row-shards over Pr exactly like a fully-connected layer
// (the gates are just four stacked FC blocks), so the 1.5D algorithm
// applies unchanged — one gather of the gate panel per timestep, one ∆z
// all-reduce per timestep, one weight all-reduce per iteration.
type LSTM struct {
	Cfg Config
	// Weights: [W (4h×(in+h)), W_hy (classes×h)].
	Weights []*tensor.Matrix
}

// NewLSTM builds a deterministically initialized LSTM.
func NewLSTM(cfg Config, seed int64) *LSTM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	zdim := cfg.In + cfg.Hidden
	return &LSTM{
		Cfg: cfg,
		Weights: []*tensor.Matrix{
			tensor.Random(4*cfg.Hidden, zdim, math.Sqrt(1.0/float64(zdim)), seed+11),
			tensor.Random(cfg.Classes, cfg.Hidden, math.Sqrt(1.0/float64(cfg.Hidden)), seed+12),
		},
	}
}

// CloneWeights returns a deep copy of the weight list.
func (m *LSTM) CloneWeights() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(m.Weights))
	for i, w := range m.Weights {
		out[i] = w.Clone()
	}
	return out
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// lstmState caches one timestep's forward quantities for BPTT.
type lstmState struct {
	z          *tensor.Matrix // (in+h) × B
	i, f, o, g *tensor.Matrix // h × B gate activations
	c, tanhC   *tensor.Matrix // h × B
}

// gates splits a packed 4h×B pre-activation into activated gate blocks.
func gatesFromPacked(a *tensor.Matrix, h int) (i, f, o, g *tensor.Matrix) {
	b := a.Cols
	i, f, o, g = tensor.New(h, b), tensor.New(h, b), tensor.New(h, b), tensor.New(h, b)
	for r := 0; r < h; r++ {
		for c := 0; c < b; c++ {
			i.Set(r, c, sigmoid(a.At(r, c)))
			f.Set(r, c, sigmoid(a.At(h+r, c)))
			o.Set(r, c, sigmoid(a.At(2*h+r, c)))
			g.Set(r, c, math.Tanh(a.At(3*h+r, c)))
		}
	}
	return
}

// stepCell advances (c, h) given activated gates.
func stepCell(i, f, o, g, cPrev *tensor.Matrix) (c, tanhC, h *tensor.Matrix) {
	rows, cols := i.Rows, i.Cols
	c, tanhC, h = tensor.New(rows, cols), tensor.New(rows, cols), tensor.New(rows, cols)
	for k := range c.Data {
		c.Data[k] = f.Data[k]*cPrev.Data[k] + i.Data[k]*g.Data[k]
		tanhC.Data[k] = math.Tanh(c.Data[k])
		h.Data[k] = o.Data[k] * tanhC.Data[k]
	}
	return
}

// Forward runs the sequence and returns logits plus the per-step caches
// and hidden states (hs[0] = zeros).
func (m *LSTM) Forward(xs []*tensor.Matrix) (*tensor.Matrix, []lstmState, []*tensor.Matrix) {
	if len(xs) != m.Cfg.T {
		panic(fmt.Sprintf("rnn: %d timesteps, config says %d", len(xs), m.Cfg.T))
	}
	b := xs[0].Cols
	hdim := m.Cfg.Hidden
	states := make([]lstmState, m.Cfg.T+1)
	hs := make([]*tensor.Matrix, m.Cfg.T+1)
	hs[0] = tensor.New(hdim, b)
	states[0].c = tensor.New(hdim, b)
	w := m.Weights[0]
	for t := 1; t <= m.Cfg.T; t++ {
		z := tensor.VStack(xs[t-1], hs[t-1])
		a := tensor.MatMulParallel(w, z)
		i, f, o, g := gatesFromPacked(a, hdim)
		c, tanhC, h := stepCell(i, f, o, g, states[t-1].c)
		states[t] = lstmState{z: z, i: i, f: f, o: o, g: g, c: c, tanhC: tanhC}
		hs[t] = h
	}
	return tensor.MatMul(m.Weights[1], hs[m.Cfg.T]), states, hs
}

// ForwardBackward runs one LSTM BPTT iteration, returning the mean loss
// and the gradients [dW, dW_hy] (batch-averaged).
func (m *LSTM) ForwardBackward(xs []*tensor.Matrix, labels []int) (float64, []*tensor.Matrix) {
	logits, states, hs := m.Forward(xs)
	loss, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
	grads := m.backward(states, hs, dlogits)
	return loss, grads
}

// gateGrad is the element-wise LSTM cell backward for one timestep: from
// ∆h_t, the carried ∆c_t and the step's cached activations it returns the
// packed 4h×B pre-activation gradient (σ' = s(1−s), tanh' = 1−g²) and
// ∆c_{t−1}. Gate block q of row r, column j sits at index q·h·B + r·B + j,
// so element k of an h×B panel maps to k + q·len(dh.Data).
func gateGrad(st *lstmState, cPrev, dh, dc *tensor.Matrix) (da, dcPrev *tensor.Matrix) {
	n := len(dh.Data)
	da, dcPrev = tensor.New(4*dh.Rows, dh.Cols), tensor.New(dh.Rows, dh.Cols)
	for k, dhk := range dh.Data {
		iv, fv, ov, gv, tc := st.i.Data[k], st.f.Data[k], st.o.Data[k], st.g.Data[k], st.tanhC.Data[k]
		// h = o ⊙ tanh(c), c = f ⊙ c_prev + i ⊙ g
		dct := dhk*ov*(1-tc*tc) + dc.Data[k]
		da.Data[k] = dct * gv * iv * (1 - iv)
		da.Data[n+k] = dct * cPrev.Data[k] * fv * (1 - fv)
		da.Data[2*n+k] = dhk * tc * ov * (1 - ov)
		da.Data[3*n+k] = dct * iv * (1 - gv*gv)
		dcPrev.Data[k] = dct * fv
	}
	return da, dcPrev
}

func (m *LSTM) backward(states []lstmState, hs []*tensor.Matrix, dlogits *tensor.Matrix) []*tensor.Matrix {
	hdim := m.Cfg.Hidden
	w, why := m.Weights[0], m.Weights[1]
	dW := tensor.New(w.Rows, w.Cols)
	dWhy := tensor.MatMulNT(dlogits, hs[m.Cfg.T])
	dh := tensor.MatMulTN(why, dlogits)
	dc := tensor.New(hdim, dh.Cols)
	for t := m.Cfg.T; t >= 1; t-- {
		da, dcPrev := gateGrad(&states[t], states[t-1].c, dh, dc)
		dW.AddInPlace(tensor.MatMulNTParallel(da, states[t].z))
		if t > 1 {
			dz := tensor.MatMulTNParallel(w, da)
			dh = dz.SliceRows(m.Cfg.In, m.Cfg.In+hdim) // only the h part feeds back
			dc = dcPrev
		}
	}
	return []*tensor.Matrix{dW, dWhy}
}

// Apply performs one optimizer step.
func (m *LSTM) Apply(opt nn.Optimizer, grads []*tensor.Matrix) {
	opt.Step(m.Weights, grads)
}

// Loss evaluates the mean loss without keeping backward state.
func (m *LSTM) Loss(xs []*tensor.Matrix, labels []int) float64 {
	logits, _, _ := m.Forward(xs)
	loss, _ := nn.SoftmaxCrossEntropy(logits, labels)
	return loss
}
