package nn

import (
	"fmt"
	"math"

	"dnnparallel/internal/tensor"
)

// This file contains the executable forward/backward kernels shared by the
// serial reference model and every distributed engine. The matrix form
// follows the paper exactly: X_i is d_{i-1}×B with one sample per column,
// and a dense layer is the three GEMMs of Section 1, Y = W·X
// (tensor.MatMul), ∆X = Wᵀ·∆Y (tensor.MatMulTN) and ∆W = ∆Y·Xᵀ
// (tensor.MatMulNT), which callers make directly. Convolutions lower to the
// same three GEMMs through im2col.

// ReLUForward returns max(x, 0) element-wise.
func ReLUForward(x *tensor.Matrix) *tensor.Matrix {
	y := x.Clone()
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = 0
		}
	}
	return y
}

// ReLUBackward masks dy by the sign of the forward input x.
func ReLUBackward(dy, x *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	for i, v := range x.Data {
		if v <= 0 {
			dx.Data[i] = 0
		}
	}
	return dx
}

// ReLUForward4 is ReLUForward on an NCHW tensor.
func ReLUForward4(x *tensor.Tensor4) *tensor.Tensor4 {
	y := x.Clone()
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = 0
		}
	}
	return y
}

// ReLUBackward4 is ReLUBackward on an NCHW tensor.
func ReLUBackward4(dy, x *tensor.Tensor4) *tensor.Tensor4 {
	dx := dy.Clone()
	for i, v := range x.Data {
		if v <= 0 {
			dx.Data[i] = 0
		}
	}
	return dx
}

// ConvMatToTensor4 reshapes an OC×(N·OH·OW) GEMM output (column index
// (n·OH+oi)·OW+oj) into an N×OC×OH×OW tensor.
func ConvMatToTensor4(m *tensor.Matrix, n, oh, ow int) *tensor.Tensor4 {
	oc := m.Rows
	if m.Cols != n*oh*ow {
		panic(fmt.Sprintf("nn: ConvMatToTensor4 got %d cols, want %d", m.Cols, n*oh*ow))
	}
	t := tensor.NewTensor4(n, oc, oh, ow)
	for o := 0; o < oc; o++ {
		row := m.Row(o)
		for nn := 0; nn < n; nn++ {
			dstBase := ((nn*oc + o) * oh) * ow
			srcBase := nn * oh * ow
			copy(t.Data[dstBase:dstBase+oh*ow], row[srcBase:srcBase+oh*ow])
		}
	}
	return t
}

// Tensor4ToConvMat is the inverse of ConvMatToTensor4.
func Tensor4ToConvMat(t *tensor.Tensor4) *tensor.Matrix {
	m := tensor.New(t.C, t.N*t.H*t.W)
	for o := 0; o < t.C; o++ {
		row := m.Row(o)
		for nn := 0; nn < t.N; nn++ {
			srcBase := ((nn*t.C + o) * t.H) * t.W
			dstBase := nn * t.H * t.W
			copy(row[dstBase:dstBase+t.H*t.W], t.Data[srcBase:srcBase+t.H*t.W])
		}
	}
	return m
}

// ConvForward computes a convolution via im2col + GEMM. filt is
// OC×(C·KH·KW) row-major by (c, ki, kj).
func ConvForward(x *tensor.Tensor4, filt *tensor.Matrix, kh, kw, stride, pad int) *tensor.Tensor4 {
	cols := x.Im2Col(kh, kw, stride, pad)
	ymat := tensor.MatMul(filt, cols)
	oh := (x.H+2*pad-kh)/stride + 1
	ow := (x.W+2*pad-kw)/stride + 1
	return ConvMatToTensor4(ymat, x.N, oh, ow)
}

// ConvBackward computes the input gradient ∆X and filter gradient ∆W of a
// convolution. dfilt has the same shape as filt.
func ConvBackward(x *tensor.Tensor4, filt *tensor.Matrix, dy *tensor.Tensor4, kh, kw, stride, pad int) (dx *tensor.Tensor4, dfilt *tensor.Matrix) {
	cols := x.Im2Col(kh, kw, stride, pad)
	dymat := Tensor4ToConvMat(dy)
	dfilt = tensor.MatMulNT(dymat, cols)
	dcols := tensor.MatMulTN(filt, dymat)
	dx = tensor.Col2Im(dcols, x.N, x.C, x.H, x.W, kh, kw, stride, pad)
	return dx, dfilt
}

// ConvGradWeights computes only ∆W (used where ∆X is not propagated, e.g.
// the first layer, mirroring the paper's i=2 lower bound in Eq. 3).
func ConvGradWeights(x *tensor.Tensor4, dy *tensor.Tensor4, kh, kw, stride, pad int) *tensor.Matrix {
	cols := x.Im2Col(kh, kw, stride, pad)
	return tensor.MatMulNT(Tensor4ToConvMat(dy), cols)
}

// MaxPoolForward computes kh×kw/stride max pooling, returning the output
// and the flat argmax index (into x.Data) per output element for backprop.
func MaxPoolForward(x *tensor.Tensor4, kh, kw, stride int) (*tensor.Tensor4, []int) {
	oh := (x.H-kh)/stride + 1
	ow := (x.W-kw)/stride + 1
	y := tensor.NewTensor4(x.N, x.C, oh, ow)
	arg := make([]int, y.Elems())
	idx := 0
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					best := math.Inf(-1)
					bestAt := -1
					for ki := 0; ki < kh; ki++ {
						ih := oi*stride + ki
						base := ((n*x.C+c)*x.H + ih) * x.W
						for kj := 0; kj < kw; kj++ {
							iw := oj*stride + kj
							if v := x.Data[base+iw]; v > best {
								best = v
								bestAt = base + iw
							}
						}
					}
					y.Data[idx] = best
					arg[idx] = bestAt
					idx++
				}
			}
		}
	}
	return y, arg
}

// MaxPoolBackward scatters dy back through the recorded argmax indices.
func MaxPoolBackward(dy *tensor.Tensor4, arg []int, in *tensor.Tensor4) *tensor.Tensor4 {
	dx := tensor.NewTensor4(in.N, in.C, in.H, in.W)
	for i, a := range arg {
		dx.Data[a] += dy.Data[i]
	}
	return dx
}

// LRN parameters (AlexNet defaults).
const (
	lrnSize  = 5
	lrnAlpha = 1e-4
	lrnBeta  = 0.75
	lrnK     = 2.0
)

// LRNForward applies AlexNet's cross-channel local response normalization
// y_i = x_i · (k + (α/n)·Σ_{j∈win(i)} x_j²)^(−β) and returns y plus the
// per-element denominators needed for backprop.
func LRNForward(x *tensor.Tensor4) (y *tensor.Tensor4, denom []float64) {
	y = tensor.NewTensor4(x.N, x.C, x.H, x.W)
	denom = make([]float64, x.Elems())
	half := lrnSize / 2
	plane := x.H * x.W
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			lo, hi := c-half, c+half
			if lo < 0 {
				lo = 0
			}
			if hi >= x.C {
				hi = x.C - 1
			}
			for p := 0; p < plane; p++ {
				var sum float64
				for j := lo; j <= hi; j++ {
					v := x.Data[(n*x.C+j)*plane+p]
					sum += v * v
				}
				i := (n*x.C+c)*plane + p
				d := lrnK + lrnAlpha/lrnSize*sum
				denom[i] = d
				y.Data[i] = x.Data[i] * math.Pow(d, -lrnBeta)
			}
		}
	}
	return y, denom
}

// LRNBackward computes ∆X of LRNForward:
// dx_m = dy_m·d_m^{−β} − (2αβ/n)·x_m·Σ_{i: m∈win(i)} dy_i·x_i·d_i^{−β−1}.
func LRNBackward(dy, x *tensor.Tensor4, denom []float64) *tensor.Tensor4 {
	dx := tensor.NewTensor4(x.N, x.C, x.H, x.W)
	half := lrnSize / 2
	plane := x.H * x.W
	coeff := 2 * lrnAlpha * lrnBeta / lrnSize
	for n := 0; n < x.N; n++ {
		for p := 0; p < plane; p++ {
			// Precompute s_i = dy_i·x_i·d_i^(−β−1) along the channel axis.
			s := make([]float64, x.C)
			for c := 0; c < x.C; c++ {
				i := (n*x.C+c)*plane + p
				s[c] = dy.Data[i] * x.Data[i] * math.Pow(denom[i], -lrnBeta-1)
			}
			for m := 0; m < x.C; m++ {
				i := (n*x.C+m)*plane + p
				v := dy.Data[i] * math.Pow(denom[i], -lrnBeta)
				lo, hi := m-half, m+half
				if lo < 0 {
					lo = 0
				}
				if hi >= x.C {
					hi = x.C - 1
				}
				var cross float64
				for c := lo; c <= hi; c++ {
					cross += s[c]
				}
				dx.Data[i] = v - coeff*x.Data[i]*cross
			}
		}
	}
	return dx
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (classes×B, one column per sample) against integer labels and the
// gradient with respect to the logits, already scaled by 1/B as in the
// minibatch SGD update (Eq. 1).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, dlogits *tensor.Matrix) {
	if len(labels) != logits.Cols {
		panic(fmt.Sprintf("nn: %d labels for %d columns", len(labels), logits.Cols))
	}
	b := logits.Cols
	classes := logits.Rows
	dlogits = tensor.New(classes, b)
	for j := 0; j < b; j++ {
		// Numerically stable softmax over column j.
		maxv := math.Inf(-1)
		for i := 0; i < classes; i++ {
			if v := logits.At(i, j); v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i := 0; i < classes; i++ {
			sum += math.Exp(logits.At(i, j) - maxv)
		}
		lse := maxv + math.Log(sum)
		lbl := labels[j]
		if lbl < 0 || lbl >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, classes))
		}
		loss += lse - logits.At(lbl, j)
		for i := 0; i < classes; i++ {
			p := math.Exp(logits.At(i, j) - lse)
			g := p
			if i == lbl {
				g -= 1
			}
			dlogits.Set(i, j, g/float64(b))
		}
	}
	return loss / float64(b), dlogits
}
