package tensor

import "testing"

// Shape validation is a correctness boundary: silent misuse of the GEMM
// kernels would corrupt every engine above them, so every constructor and
// slicer must fail loudly.

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestShapeValidationPanics(t *testing.T) {
	mustPanic(t, "New negative", func() { New(-1, 2) })
	mustPanic(t, "NewTensor4 negative", func() { NewTensor4(1, -2, 3, 4) })
	mustPanic(t, "FromSlice short", func() { FromSlice(2, 2, []float64{1}) })
	mustPanic(t, "Wrap short", func() { Wrap(2, 2, []float64{1}) })
	m := New(3, 3)
	mustPanic(t, "SliceCols oob", func() { m.SliceCols(2, 5) })
	mustPanic(t, "SliceRows oob", func() { m.SliceRows(-1, 2) })
	mustPanic(t, "VStack mismatch", func() { VStack(New(1, 2), New(1, 3)) })
	mustPanic(t, "Add mismatch", func() { New(1, 2).Add(New(2, 1)) })
	mustPanic(t, "MaxAbsDiff mismatch", func() { New(1, 2).MaxAbsDiff(New(2, 1)) })
	mustPanic(t, "MatMulTN mismatch", func() { MatMulTN(New(2, 3), New(3, 2)) })
	mustPanic(t, "MatMulNT mismatch", func() { MatMulNT(New(2, 3), New(2, 4)) })
	mustPanic(t, "MatMul mismatch", func() { MatMul(New(2, 3), New(4, 2)) })
	x := NewTensor4(1, 1, 4, 4)
	mustPanic(t, "SliceRowsH oob", func() { x.SliceRowsH(2, 6) })
	mustPanic(t, "SetRowsH oob", func() { x.SetRowsH(3, NewTensor4(1, 1, 2, 4)) })
	mustPanic(t, "SliceSamples oob", func() { x.SliceSamples(0, 2) })
	mustPanic(t, "SetSamples mismatch", func() { x.SetSamples(0, NewTensor4(1, 2, 4, 4)) })
	mustPanic(t, "FromMatrix mismatch", func() { FromMatrix(New(5, 1), 1, 2, 2) })
	mustPanic(t, "Col2Im mismatch", func() { Col2Im(New(1, 1), 1, 1, 4, 4, 3, 3, 1, 1) })
	mustPanic(t, "Tensor4 MaxAbsDiff mismatch", func() { x.MaxAbsDiff(NewTensor4(1, 1, 2, 2)) })
}

func TestEmptyStacks(t *testing.T) {
	if m := VStack(); m.Rows != 0 || m.Cols != 0 {
		t.Fatal("empty VStack should be 0x0")
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty small String")
	}
	big := New(50, 50)
	if s := big.String(); s != "Matrix(50x50)" {
		t.Fatalf("big String = %q", s)
	}
}
