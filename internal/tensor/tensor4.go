package tensor

import "fmt"

// Tensor4 is a dense NCHW tensor: sample n, channel c, row h, column w.
// Element (n,c,h,w) lives at Data[((n*C+c)*H+h)*W+w]. NCHW matches the
// memory layout discussed in the paper's Fig. 3 (width runs fastest), which
// is why domain decomposition splits along H: each shard stays contiguous
// per (n, c) plane.
type Tensor4 struct {
	N, C, H, W int
	Data       []float64
}

// NewTensor4 returns a zeroed N×C×H×W tensor.
func NewTensor4(n, c, h, w int) *Tensor4 {
	if n < 0 || c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("tensor: negative Tensor4 dims %d,%d,%d,%d", n, c, h, w))
	}
	return &Tensor4{N: n, C: c, H: h, W: w, Data: make([]float64, n*c*h*w)}
}

// Random4 returns an N×C×H×W tensor with uniform values in [-scale, scale].
func Random4(n, c, h, w int, scale float64, seed int64) *Tensor4 {
	t := NewTensor4(n, c, h, w)
	m := Random(1, len(t.Data), scale, seed)
	copy(t.Data, m.Data)
	return t
}

// At returns element (n,c,h,w).
func (t *Tensor4) At(n, c, h, w int) float64 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set assigns element (n,c,h,w).
func (t *Tensor4) Set(n, c, h, w int, v float64) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Add accumulates element (n,c,h,w) by v.
func (t *Tensor4) Add(n, c, h, w int, v float64) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] += v
}

// Clone returns a deep copy.
func (t *Tensor4) Clone() *Tensor4 {
	c := NewTensor4(t.N, t.C, t.H, t.W)
	copy(c.Data, t.Data)
	return c
}

// Elems returns the number of scalar elements.
func (t *Tensor4) Elems() int { return t.N * t.C * t.H * t.W }

// SameShape reports whether t and u have identical dimensions.
func (t *Tensor4) SameShape(u *Tensor4) bool {
	return t.N == u.N && t.C == u.C && t.H == u.H && t.W == u.W
}

// MaxAbsDiff returns the largest absolute element-wise difference.
// Panics on shape mismatch.
func (t *Tensor4) MaxAbsDiff(u *Tensor4) float64 {
	if !t.SameShape(u) {
		panic("tensor: Tensor4 shape mismatch")
	}
	var max float64
	for i, v := range t.Data {
		d := v - u.Data[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// SliceRowsH returns a copy of spatial rows [h0, h1) for every sample and
// channel: the domain-parallel shard of Fig. 3.
func (t *Tensor4) SliceRowsH(h0, h1 int) *Tensor4 {
	if h0 < 0 || h1 > t.H || h0 > h1 {
		panic(fmt.Sprintf("tensor: SliceRowsH [%d,%d) of H=%d", h0, h1, t.H))
	}
	out := NewTensor4(t.N, t.C, h1-h0, t.W)
	for n := 0; n < t.N; n++ {
		for c := 0; c < t.C; c++ {
			srcBase := ((n*t.C+c)*t.H + h0) * t.W
			dstBase := (n*out.C + c) * out.H * out.W
			copy(out.Data[dstBase:dstBase+(h1-h0)*t.W], t.Data[srcBase:srcBase+(h1-h0)*t.W])
		}
	}
	return out
}

// SetRowsH copies src (same N, C, W) into spatial rows [h0, h0+src.H).
func (t *Tensor4) SetRowsH(h0 int, src *Tensor4) {
	if src.N != t.N || src.C != t.C || src.W != t.W || h0 < 0 || h0+src.H > t.H {
		panic("tensor: SetRowsH shape mismatch")
	}
	for n := 0; n < t.N; n++ {
		for c := 0; c < t.C; c++ {
			dstBase := ((n*t.C+c)*t.H + h0) * t.W
			srcBase := (n*src.C + c) * src.H * src.W
			copy(t.Data[dstBase:dstBase+src.H*t.W], src.Data[srcBase:srcBase+src.H*src.W])
		}
	}
}

// SliceSamples returns a copy of samples [n0, n1): the batch-parallel shard.
func (t *Tensor4) SliceSamples(n0, n1 int) *Tensor4 {
	if n0 < 0 || n1 > t.N || n0 > n1 {
		panic(fmt.Sprintf("tensor: SliceSamples [%d,%d) of N=%d", n0, n1, t.N))
	}
	out := NewTensor4(n1-n0, t.C, t.H, t.W)
	per := t.C * t.H * t.W
	copy(out.Data, t.Data[n0*per:n1*per])
	return out
}

// SetSamples copies src into samples [n0, n0+src.N).
func (t *Tensor4) SetSamples(n0 int, src *Tensor4) {
	if src.C != t.C || src.H != t.H || src.W != t.W || n0 < 0 || n0+src.N > t.N {
		panic("tensor: SetSamples shape mismatch")
	}
	per := t.C * t.H * t.W
	copy(t.Data[n0*per:], src.Data)
}

// AsMatrix reinterprets the tensor as an (C·H·W)×N matrix whose column n is
// sample n flattened — the X_i layout of the paper (each column holds one
// sample's activations). The result is a copy.
func (t *Tensor4) AsMatrix() *Matrix {
	d := t.C * t.H * t.W
	m := New(d, t.N)
	for n := 0; n < t.N; n++ {
		col := t.Data[n*d : (n+1)*d]
		for i, v := range col {
			m.Data[i*t.N+n] = v
		}
	}
	return m
}

// FromMatrix is the inverse of AsMatrix: column n of m becomes sample n of
// an N×C×H×W tensor with d = C·H·W rows expected in m.
func FromMatrix(m *Matrix, c, h, w int) *Tensor4 {
	d := c * h * w
	if m.Rows != d {
		panic(fmt.Sprintf("tensor: FromMatrix needs %d rows, got %d", d, m.Rows))
	}
	t := NewTensor4(m.Cols, c, h, w)
	for n := 0; n < m.Cols; n++ {
		dst := t.Data[n*d : (n+1)*d]
		for i := range dst {
			dst[i] = m.Data[i*m.Cols+n]
		}
	}
	return t
}

// Im2Col lowers t for a kh×kw convolution with the given stride and
// symmetric zero padding into a (C·kh·kw) × (N·OH·OW) matrix, so that
// convolution becomes a single GEMM with the (OC)×(C·kh·kw) filter matrix.
// OH = (H+2*pad-kh)/stride+1 and similarly OW.
func (t *Tensor4) Im2Col(kh, kw, stride, pad int) *Matrix {
	oh := (t.H+2*pad-kh)/stride + 1
	ow := (t.W+2*pad-kw)/stride + 1
	rows := t.C * kh * kw
	cols := t.N * oh * ow
	out := New(rows, cols)
	for n := 0; n < t.N; n++ {
		for c := 0; c < t.C; c++ {
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					r := (c*kh+ki)*kw + kj
					orow := out.Row(r)
					for oi := 0; oi < oh; oi++ {
						ih := oi*stride + ki - pad
						if ih < 0 || ih >= t.H {
							continue
						}
						srcBase := ((n*t.C+c)*t.H + ih) * t.W
						dstBase := (n*oh + oi) * ow
						for oj := 0; oj < ow; oj++ {
							iw := oj*stride + kj - pad
							if iw < 0 || iw >= t.W {
								continue
							}
							orow[dstBase+oj] = t.Data[srcBase+iw]
						}
					}
				}
			}
		}
	}
	return out
}

// Col2Im scatters-adds the (C·kh·kw) × (N·OH·OW) column matrix back into an
// N×C×H×W tensor — the adjoint of Im2Col, used for ∆X in conv backprop.
func Col2Im(cols *Matrix, n, c, h, w, kh, kw, stride, pad int) *Tensor4 {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if cols.Rows != c*kh*kw || cols.Cols != n*oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im got %dx%d, want %dx%d", cols.Rows, cols.Cols, c*kh*kw, n*oh*ow))
	}
	t := NewTensor4(n, c, h, w)
	for nn := 0; nn < n; nn++ {
		for cc := 0; cc < c; cc++ {
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					r := (cc*kh+ki)*kw + kj
					crow := cols.Row(r)
					for oi := 0; oi < oh; oi++ {
						ih := oi*stride + ki - pad
						if ih < 0 || ih >= h {
							continue
						}
						dstBase := ((nn*c+cc)*h + ih) * w
						srcBase := (nn*oh + oi) * ow
						for oj := 0; oj < ow; oj++ {
							iw := oj*stride + kj - pad
							if iw < 0 || iw >= w {
								continue
							}
							t.Data[dstBase+iw] += crow[srcBase+oj]
						}
					}
				}
			}
		}
	}
	return t
}
