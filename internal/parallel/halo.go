package parallel

import (
	"dnnparallel/internal/mpi"
	"dnnparallel/internal/tensor"
)

// Halo exchange tags (engine-level tags must be ≥ 0).
const (
	tagHaloDown = 100 + iota // data flowing to the next (lower) slab
	tagHaloUp                // data flowing to the previous (upper) slab
	tagGradDown
	tagGradUp
)

// exchangeHalo swaps h boundary rows of this rank's slab with its vertical
// neighbours in comm (rank order = slab order) via non-blocking sends —
// the paper's overlappable pairwise exchange — and returns the
// halo-extended slab plus the number of top halo rows attached.
func exchangeHalo(comm *mpi.Comm, x *tensor.Tensor4, h int) (*tensor.Tensor4, int) {
	r, p := comm.Rank(), comm.Size()
	if h == 0 || p == 1 {
		return x, 0
	}
	// Non-blocking sends of our boundary slabs…
	if r > 0 {
		comm.ISend(r-1, tagHaloUp, x.SliceRowsH(0, h).Data)
	}
	if r < p-1 {
		comm.ISend(r+1, tagHaloDown, x.SliceRowsH(x.H-h, x.H).Data)
	}
	// …then receive the neighbours' boundaries.
	var top, bot *tensor.Tensor4
	if r > 0 {
		top = &tensor.Tensor4{N: x.N, C: x.C, H: h, W: x.W, Data: comm.Recv(r-1, tagHaloDown)}
	}
	if r < p-1 {
		bot = &tensor.Tensor4{N: x.N, C: x.C, H: h, W: x.W, Data: comm.Recv(r+1, tagHaloUp)}
	}
	extH := x.H
	haloT := 0
	if top != nil {
		extH += h
		haloT = h
	}
	if bot != nil {
		extH += h
	}
	ext := tensor.NewTensor4(x.N, x.C, extH, x.W)
	if top != nil {
		ext.SetRowsH(0, top)
	}
	ext.SetRowsH(haloT, x)
	if bot != nil {
		ext.SetRowsH(haloT+x.H, bot)
	}
	return ext, haloT
}

// foldHaloGrad extracts this rank's slab from an extended input gradient
// and exchanges the halo-row contributions with neighbours (the backward
// halo exchange of Eq. 7), accumulating what they computed for our rows.
func foldHaloGrad(comm *mpi.Comm, dxExt *tensor.Tensor4, haloT, ownH int) *tensor.Tensor4 {
	r, p := comm.Rank(), comm.Size()
	own := dxExt.SliceRowsH(haloT, haloT+ownH)
	haloB := dxExt.H - haloT - ownH
	if r > 0 && haloT > 0 {
		comm.ISend(r-1, tagGradUp, dxExt.SliceRowsH(0, haloT).Data)
	}
	if r < p-1 && haloB > 0 {
		comm.ISend(r+1, tagGradDown, dxExt.SliceRowsH(haloT+ownH, dxExt.H).Data)
	}
	if r < p-1 && haloB > 0 {
		addRowsH(own, ownH-haloB, haloB, comm.Recv(r+1, tagGradUp)) // their top-halo grad = our bottom rows
	}
	if r > 0 && haloT > 0 {
		addRowsH(own, 0, haloT, comm.Recv(r-1, tagGradDown)) // their bottom-halo grad = our top rows
	}
	return own
}

// addRowsH adds rows [h0, h0+h) of t element-wise from data, which holds
// those rows as an N×C×h×W tensor.
func addRowsH(t *tensor.Tensor4, h0, h int, data []float64) {
	src := tensor.Tensor4{N: t.N, C: t.C, H: h, W: t.W, Data: data}
	for n := 0; n < t.N; n++ {
		for c := 0; c < t.C; c++ {
			for i := 0; i < h; i++ {
				for w := 0; w < t.W; w++ {
					t.Add(n, c, h0+i, w, src.At(n, c, i, w))
				}
			}
		}
	}
}
