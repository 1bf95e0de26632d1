package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// A banded GEMM must be bit-identical to its kernel run as one band:
// engine trajectory comparisons depend on it, and the banding changes with
// GOMAXPROCS (CI runs this package at -cpu 1,2,4).

// gemms lists each GEMM with its row-range kernel and the operand shapes
// that give a rows×cols product over inner.
var gemms = []struct {
	name   string
	gemm   func(a, b *Matrix) *Matrix
	kernel func(a, b, out *Matrix, r0, r1 int)
	shapes func(rows, cols, inner int) (ar, ac, br, bc int)
}{
	{"MatMul", MatMul, matmulRange, func(r, c, k int) (int, int, int, int) { return r, k, k, c }},
	{"MatMulTN", MatMulTN, matmulTNRange, func(r, c, k int) (int, int, int, int) { return k, r, k, c }},
	{"MatMulNT", MatMulNT, matmulNTRange, func(r, c, k int) (int, int, int, int) { return r, k, c, k }},
}

// sparseMat is randMat with about a quarter of its entries zero, so the
// kernels' zero-skipping branches run too.
func sparseMat(rng *rand.Rand, r, c int) *Matrix {
	m := randMat(rng, r, c)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// matchesOneBand reports whether g's rows×cols product over inner equals
// its kernel run as one band.
func matchesOneBand(rng *rand.Rand, g int, rows, cols, inner int) bool {
	ar, ac, br, bc := gemms[g].shapes(rows, cols, inner)
	a, b := sparseMat(rng, ar, ac), sparseMat(rng, br, bc)
	want := New(rows, cols)
	gemms[g].kernel(a, b, want, 0, rows)
	return gemms[g].gemm(a, b).Equal(want, 0)
}

// bandedMismatch returns the name of the first GEMM whose rows×cols product
// over inner differs from its kernel run as one band, or "".
func bandedMismatch(rng *rand.Rand, rows, cols, inner int) string {
	for g := range gemms {
		if !matchesOneBand(rng, g, rows, cols, inner) {
			return gemms[g].name
		}
	}
	return ""
}

// checkShapeTable runs gemms[g] against one band on every row of a shape
// table (rows, cols, inner): one band by size on the first line; then
// exactly bandThreshold, rows = 1 and rows < GOMAXPROCS above it, and
// larger.
func checkShapeTable(t *testing.T, g int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var below, above bool
	for _, d := range [][3]int{
		{1, 1, 1}, {3, 7, 5}, {4, 3, 5}, {20, 20, 20}, {31, 32, 32},
		{32, 32, 32}, {1, 200, 300}, {2, 150, 150}, {3, 128, 128},
		{33, 129, 65}, {64, 48, 80}, {129, 64, 70}, {200, 100, 50}, {200, 3, 100},
	} {
		if d[0]*d[1]*d[2] < bandThreshold {
			below = true
		} else {
			above = true
		}
		if !matchesOneBand(rng, g, d[0], d[1], d[2]) {
			t.Fatalf("%s differs from one band for rows, cols, inner = %v", gemms[g].name, d)
		}
	}
	if !below || !above {
		t.Fatal("shape table must cover both sides of bandThreshold")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T)  { checkShapeTable(t, 0, 2) }
func TestMatMulTNParallelBitIdentical(t *testing.T) { checkShapeTable(t, 1, 61) }
func TestMatMulNTParallelBitIdentical(t *testing.T) { checkShapeTable(t, 2, 67) }

func TestGEMMsMatchOneBandProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Dimensions up to 64 put about half the products above bandThreshold.
		return bandedMismatch(rng, 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(64)) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGEMM256 times each GEMM on 256×256 operands banded (as callers
// run it) and as one band.
func BenchmarkGEMM256(b *testing.B) {
	x := Random(256, 256, 1, 1)
	y := Random(256, 256, 1, 2)
	for _, g := range gemms {
		b.Run(g.name+"/banded", func(b *testing.B) {
			b.SetBytes(int64(256 * 256 * 256 * 2 * 8))
			for i := 0; i < b.N; i++ {
				g.gemm(x, y)
			}
		})
		b.Run(g.name+"/one-band", func(b *testing.B) {
			b.SetBytes(int64(256 * 256 * 256 * 2 * 8))
			for i := 0; i < b.N; i++ {
				g.kernel(x, y, New(256, 256), 0, 256)
			}
		})
	}
}
