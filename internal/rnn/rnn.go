// Package rnn extends the paper's framework to recurrent networks, the
// case its introduction calls out explicitly: "cases with Recurrent
// Neural Networks mainly consist of fully connected layers and our
// analysis naturally extends to those cases."
//
// The model is an Elman network trained with backpropagation through time
// (BPTT) on sequence classification:
//
//	h_t = tanh(W_xh·x_t + W_hh·h_{t−1}),  t = 1…T,  h_0 = 0
//	ŷ   = softmax(W_hy·h_T)
//
// The distributed structure differs from feed-forward networks in one
// interesting way: the weight matrices are *shared across timesteps*, so
// the batch-parallel gradient all-reduce moves |W| words once per
// iteration regardless of T, while the model-parallel activation
// all-gathers and ∆h all-reduces recur every timestep (T of each). The
// integrated 1.5D trade-off therefore shifts with sequence length — see
// Cost15D, LSTMCost15D, BestGrid and the tests.
//
// The executable engines, for the Elman Model and the packed-gate LSTM:
//
//   - RunSerial, RunLSTMSerial — the single-process references;
//   - RunBatch, RunLSTMBatch   — pure batch parallelism (Eq. 4);
//   - RunIntegrated15D, RunLSTM15D — the 1.5D algorithm on a Pr × Pc grid
//     (Eq. 8 with its activation terms ×T).
//
// The serial and batch runs are one body over the methods both models
// have. The two 1.5D runs are one BPTT body, run15D, into which each model
// plugs a cell: its per-step forward and backward math and three sizes
// (the rows gathered and all-reduced per step, and the parameter count).
// The same three sizes feed the one Eq. 8 pricing loop behind Cost15D and
// LSTMCost15D, and BestGrid and run15D read one rule for which grids fit.
// Every distributed engine runs on internal/parallel's harness
// (parallel.RunRanks), returns a parallel.Result, and uses parallel's
// sharding, gather and reduction helpers.
package rnn

import (
	"fmt"
	"math"

	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// Config describes an Elman RNN classifier.
type Config struct {
	In      int // input features per timestep
	Hidden  int // hidden state width
	Classes int // output classes
	T       int // sequence length
}

// Validate reports structural errors.
func (c Config) Validate() error {
	if c.In < 1 || c.Hidden < 1 || c.Classes < 2 || c.T < 1 {
		return fmt.Errorf("rnn: bad config %+v", c)
	}
	return nil
}

// Weights returns the total parameter count |W_xh| + |W_hh| + |W_hy|.
func (c Config) Weights() int {
	return c.Hidden*c.In + c.Hidden*c.Hidden + c.Classes*c.Hidden
}

// Model is the executable serial reference.
type Model struct {
	Cfg Config
	// Weights in canonical order: [W_xh (h×in), W_hh (h×h), W_hy (c×h)].
	Weights []*tensor.Matrix
}

// NewModel builds a deterministically initialized model.
func NewModel(cfg Config, seed int64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Model{
		Cfg: cfg,
		Weights: []*tensor.Matrix{
			tensor.Random(cfg.Hidden, cfg.In, math.Sqrt(1.0/float64(cfg.In)), seed+1),
			tensor.Random(cfg.Hidden, cfg.Hidden, math.Sqrt(1.0/float64(cfg.Hidden)), seed+2),
			tensor.Random(cfg.Classes, cfg.Hidden, math.Sqrt(1.0/float64(cfg.Hidden)), seed+3),
		},
	}
}

// CloneWeights returns a deep copy of the weight list.
func (m *Model) CloneWeights() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(m.Weights))
	for i, w := range m.Weights {
		out[i] = w.Clone()
	}
	return out
}

// TanhForward applies tanh element-wise.
func TanhForward(x *tensor.Matrix) *tensor.Matrix {
	y := x.Clone()
	for i, v := range y.Data {
		y.Data[i] = math.Tanh(v)
	}
	return y
}

// TanhBackward computes dy ⊙ (1 − h²) given the forward output h.
func TanhBackward(dy, h *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	for i, v := range h.Data {
		dx.Data[i] *= 1 - v*v
	}
	return dx
}

// Forward runs the sequence (xs[t] is in×B, one sequence per column) and
// returns the logits plus all hidden states (h[0] = initial zeros).
func (m *Model) Forward(xs []*tensor.Matrix) (logits *tensor.Matrix, hs []*tensor.Matrix) {
	if len(xs) != m.Cfg.T {
		panic(fmt.Sprintf("rnn: %d timesteps, config says %d", len(xs), m.Cfg.T))
	}
	b := xs[0].Cols
	hs = make([]*tensor.Matrix, m.Cfg.T+1)
	hs[0] = tensor.New(m.Cfg.Hidden, b)
	wxh, whh, why := m.Weights[0], m.Weights[1], m.Weights[2]
	for t := 1; t <= m.Cfg.T; t++ {
		a := tensor.MatMul(wxh, xs[t-1])
		a.AddInPlace(tensor.MatMul(whh, hs[t-1]))
		hs[t] = TanhForward(a)
	}
	return tensor.MatMul(why, hs[m.Cfg.T]), hs
}

// ForwardBackward runs BPTT for one minibatch of sequences and returns
// the mean loss and gradients (batch-averaged, canonical weight order).
func (m *Model) ForwardBackward(xs []*tensor.Matrix, labels []int) (float64, []*tensor.Matrix) {
	logits, hs := m.Forward(xs)
	loss, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
	grads := m.backward(xs, hs, dlogits)
	return loss, grads
}

// backward propagates dlogits through time. Exposed pieces (hidden-state
// trajectory in, gradients out) are shared with the distributed engines.
func (m *Model) backward(xs, hs []*tensor.Matrix, dlogits *tensor.Matrix) []*tensor.Matrix {
	wxh, whh, why := m.Weights[0], m.Weights[1], m.Weights[2]
	dWxh := tensor.New(wxh.Rows, wxh.Cols)
	dWhh := tensor.New(whh.Rows, whh.Cols)
	dWhy := tensor.MatMulNT(dlogits, hs[m.Cfg.T])
	dh := tensor.MatMulTN(why, dlogits)
	for t := m.Cfg.T; t >= 1; t-- {
		da := TanhBackward(dh, hs[t])
		dWxh.AddInPlace(tensor.MatMulNT(da, xs[t-1]))
		dWhh.AddInPlace(tensor.MatMulNT(da, hs[t-1]))
		dh = tensor.MatMulTN(whh, da)
	}
	return []*tensor.Matrix{dWxh, dWhh, dWhy}
}

// Apply performs one optimizer step.
func (m *Model) Apply(opt nn.Optimizer, grads []*tensor.Matrix) {
	opt.Step(m.Weights, grads)
}

// Loss evaluates the mean loss without keeping backward state.
func (m *Model) Loss(xs []*tensor.Matrix, labels []int) float64 {
	logits, _ := m.Forward(xs)
	loss, _ := nn.SoftmaxCrossEntropy(logits, labels)
	return loss
}
