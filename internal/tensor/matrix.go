// Package tensor provides the dense linear-algebra substrate used by the
// training engines: a row-major float64 matrix with the three GEMM variants
// required by DNN training (Y = W·X, ∆X = Wᵀ·∆Y, ∆W = ∆Y·Xᵀ), plus an NCHW
// 4-D tensor with im2col/col2im lowering for convolutions.
//
// Everything is written from scratch on the standard library. Each GEMM
// chooses its bands by size: a small product runs on the calling goroutine,
// a large one splits its output rows into up to GOMAXPROCS contiguous bands.
// The result does not depend on the banding, because every output element
// is reduced by one band in the same order.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix: element (i, j) lives at Data[i*Cols+j].
// The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice builds an r×c matrix backed by a copy of data (row-major).
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice needs %d elements, got %d", r*c, len(data)))
	}
	m := New(r, c)
	copy(m.Data, data)
	return m
}

// Wrap builds an r×c matrix sharing data (no copy). The caller must not
// resize data while the matrix is in use.
func Wrap(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: Wrap needs %d elements, got %d", r*c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// Random returns an r×c matrix with i.i.d. values drawn uniformly from
// [-scale, scale] using the given seed. Deterministic for a fixed seed.
func Random(r, c int, scale float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = scale * (2*rng.Float64() - 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and n have the same shape and all elements within
// tol of each other.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and n. Panics on shape mismatch.
func (m *Matrix) MaxAbsDiff(n *Matrix) float64 {
	m.mustSameShape(n)
	var max float64
	for i, v := range m.Data {
		if d := math.Abs(v - n.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func (m *Matrix) mustSameShape(n *Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// Add returns m + n as a new matrix.
func (m *Matrix) Add(n *Matrix) *Matrix {
	m.mustSameShape(n)
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + n.Data[i]
	}
	return out
}

// AddInPlace accumulates n into m.
func (m *Matrix) AddInPlace(n *Matrix) {
	m.mustSameShape(n)
	for i, v := range n.Data {
		m.Data[i] += v
	}
}

// Sub returns m - n as a new matrix.
func (m *Matrix) Sub(n *Matrix) *Matrix {
	m.mustSameShape(n)
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - n.Data[i]
	}
	return out
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AXPY performs m += a·n in place.
func (m *Matrix) AXPY(a float64, n *Matrix) {
	m.mustSameShape(n)
	for i, v := range n.Data {
		m.Data[i] += a * v
	}
}

// SliceCols returns a copy of columns [lo, hi) as a new Rows×(hi-lo) matrix.
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi) as a new (hi-lo)×Cols matrix.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// VStack concatenates the given matrices vertically (all must share Cols).
func VStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic("tensor: VStack column mismatch")
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// MatMul returns a·b. Shapes: (r×k)·(k×c) → r×c.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return banded(matmulRange, a, b, a.Rows, b.Cols, a.Cols)
}

// MatMulTN returns aᵀ·b without materializing aᵀ.
// Shapes: (k×r)ᵀ·(k×c) → r×c.
func MatMulTN(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTN outer mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return banded(matmulTNRange, a, b, a.Cols, b.Cols, a.Rows)
}

// MatMulNT returns a·bᵀ without materializing bᵀ.
// Shapes: (r×k)·(c×k)ᵀ → r×c.
func MatMulNT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT inner mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return banded(matmulNTRange, a, b, a.Rows, b.Rows, a.Cols)
}

// bandThreshold is the output·inner volume below which one band wins
// (goroutine fan-out overhead dominates).
const bandThreshold = 1 << 15

// banded returns the rows×cols product that kernel computes from a and b.
// Below bandThreshold, or at GOMAXPROCS = 1, kernel runs once over all
// rows; otherwise up to GOMAXPROCS goroutines each run it over a
// contiguous band of output rows.
func banded(kernel func(a, b, out *Matrix, r0, r1 int), a, b *Matrix, rows, cols, inner int) *Matrix {
	out := New(rows, cols)
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || rows*cols*inner < bandThreshold {
		kernel(a, b, out, 0, rows)
		return out
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for r0 := 0; r0 < rows; r0 += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel(a, b, out, lo, hi)
		}(r0, min(r0+chunk, rows))
	}
	wg.Wait()
	return out
}

// matmulRange computes out rows [r0, r1) of a·b with an ikj loop order that
// streams b rows sequentially (good locality without an explicit pack).
func matmulRange(a, b, out *Matrix, r0, r1 int) {
	n := b.Cols
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : kk*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matmulTNRange computes out rows [r0, r1) of aᵀ·b. Every band scans the
// shared k dimension in order but writes only its own output rows.
func matmulTNRange(a, b, out *Matrix, r0, r1 int) {
	n := b.Cols
	for kk := 0; kk < a.Rows; kk++ {
		arow := a.Row(kk)
		brow := b.Data[kk*n : kk*n+n]
		for i := r0; i < r1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : i*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matmulNTRange computes out rows [r0, r1) of a·bᵀ.
func matmulNTRange(a, b, out *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}
