package parallel

import (
	"fmt"

	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// domainStack executes the spatial front of a network (conv/pool/LRN
// layers up to the first FC) with each rank of comm owning a horizontal
// slab of every sample — the Fig. 3 decomposition. Convolutions exchange
// ⌊k/2⌋ halo rows with vertical neighbors via non-blocking sends (the
// paper's overlappable pairwise exchange); pooling is halo-free because
// shard boundaries are required to align with pooling windows; 1×1
// convolutions communicate nothing (the Eq. 7 observation). Convolution
// weights are fully replicated; their gradients are all-reduced over
// gradComm (all P processes, per Eq. 7/Eq. 9).
type domainStack struct {
	spec     *nn.Network
	comm     *mpi.Comm // spatial group (size Pr); rank order = slab order
	gradComm *mpi.Comm // weight-gradient all-reduce group (all P)
	stopLi   int       // first non-spatial layer index (end of the stack)

	weights []*tensor.Matrix // replicated conv filters
	slot    map[int]int

	// forward caches (local slabs)
	xExt  []*tensor.Tensor4 // halo-extended conv inputs
	haloT []int             // rows of top halo present in xExt
	pre   []*tensor.Tensor4 // local pre-activation conv outputs
	t4In  []*tensor.Tensor4 // pool/LRN local inputs
	arg   [][]int
	denom [][]float64
}

// Halo exchange tags (engine-level tags must be ≥ 0).
const (
	tagHaloDown = 100 + iota // data flowing to the next (lower) slab
	tagHaloUp                // data flowing to the previous (upper) slab
	tagGradDown
	tagGradUp
)

// spatialPrefixEnd returns the index of the first FC layer (the end of the
// spatial stack); len(Layers) if the network is all-spatial.
func spatialPrefixEnd(spec *nn.Network) int {
	for i := range spec.Layers {
		if spec.Layers[i].Kind == nn.FC {
			return i
		}
	}
	return len(spec.Layers)
}

// validateDomain checks that the spatial front of spec can be slab-split
// pr ways: conv layers must be stride-1, square, odd, half-padded (shape
// preserving); pool layers must tile exactly (k = stride); every spatial
// layer's height must split into pr equal stride-aligned slabs no thinner
// than the halo.
func validateDomain(spec *nn.Network, pr int) error {
	if pr < 1 {
		return fmt.Errorf("parallel: domain split pr=%d", pr)
	}
	stop := spatialPrefixEnd(spec)
	h := spec.Input.H
	for li := 0; li < stop; li++ {
		l := &spec.Layers[li]
		switch l.Kind {
		case nn.Conv:
			if l.Stride != 1 || l.KH != l.KW || l.KH%2 == 0 || l.Pad != l.KH/2 {
				return fmt.Errorf("parallel: domain conv %s must be stride-1 odd-square half-padded (k=%dx%d s=%d pad=%d)",
					l.Name, l.KH, l.KW, l.Stride, l.Pad)
			}
			if h%pr != 0 {
				return fmt.Errorf("parallel: layer %s height %d not divisible by pr=%d", l.Name, h, pr)
			}
			if h/pr < l.KH/2 {
				return fmt.Errorf("parallel: layer %s slab height %d thinner than halo %d", l.Name, h/pr, l.KH/2)
			}
		case nn.Pool:
			if l.KH != l.Stride || l.KW != l.Stride || l.Pad != 0 {
				return fmt.Errorf("parallel: domain pool %s must tile exactly (k=%d stride=%d)", l.Name, l.KH, l.Stride)
			}
			if h%pr != 0 || (h/pr)%l.Stride != 0 {
				return fmt.Errorf("parallel: pool %s slabs of %d rows not aligned to stride %d", l.Name, h/pr, l.Stride)
			}
			h /= l.Stride
		case nn.LRN, nn.Dropout:
			// spatially local
		}
	}
	if h%pr != 0 {
		return fmt.Errorf("parallel: final spatial height %d not divisible by pr=%d", h, pr)
	}
	return nil
}

func newDomainStack(spec *nn.Network, ref *nn.Model, comm, gradComm *mpi.Comm) *domainStack {
	d := &domainStack{
		spec: spec, comm: comm, gradComm: gradComm,
		stopLi: spatialPrefixEnd(spec),
		slot:   map[int]int{},
	}
	for _, li := range spec.WeightedLayers() {
		if li >= d.stopLi {
			break
		}
		d.slot[li] = len(d.weights)
		d.weights = append(d.weights, ref.Weights[ref.WeightSlot(li)].Clone())
	}
	n := d.stopLi
	d.xExt = make([]*tensor.Tensor4, n)
	d.haloT = make([]int, n)
	d.pre = make([]*tensor.Tensor4, n)
	d.t4In = make([]*tensor.Tensor4, n)
	d.arg = make([][]int, n)
	d.denom = make([][]float64, n)
	return d
}

// exchangeHalo swaps h boundary rows with vertical neighbors and returns
// the halo-extended tensor plus the number of top halo rows attached.
func (d *domainStack) exchangeHalo(x *tensor.Tensor4, h int) (*tensor.Tensor4, int) {
	r, p := d.comm.Rank(), d.comm.Size()
	if h == 0 || p == 1 {
		return x, 0
	}
	// Non-blocking sends of our boundary slabs…
	if r > 0 {
		d.comm.ISend(r-1, tagHaloUp, x.SliceRowsH(0, h).Data)
	}
	if r < p-1 {
		d.comm.ISend(r+1, tagHaloDown, x.SliceRowsH(x.H-h, x.H).Data)
	}
	// …then receive the neighbours' boundaries.
	var top, bot *tensor.Tensor4
	if r > 0 {
		top = &tensor.Tensor4{N: x.N, C: x.C, H: h, W: x.W, Data: d.comm.Recv(r-1, tagHaloDown)}
	}
	if r < p-1 {
		bot = &tensor.Tensor4{N: x.N, C: x.C, H: h, W: x.W, Data: d.comm.Recv(r+1, tagHaloUp)}
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

// Forward runs the spatial stack on this rank's slab (rows in slab order
// by comm rank) and returns the local slab of the final spatial output.
// lastW is the network's final weighted layer (for the ReLU policy).
func (d *domainStack) Forward(x *tensor.Tensor4, lastW int) *tensor.Tensor4 {
	cur := x
	for li := 0; li < d.stopLi; li++ {
		l := &d.spec.Layers[li]
		switch l.Kind {
		case nn.Conv:
			halo := l.KH / 2
			ext, haloT := d.exchangeHalo(cur, halo)
			d.xExt[li] = ext
			d.haloT[li] = haloT
			yExt := nn.ConvForward(ext, d.weights[d.slot[li]], l.KH, l.KW, 1, l.Pad)
			pre := yExt.SliceRowsH(haloT, haloT+cur.H)
			d.pre[li] = pre
			if li != lastW {
				cur = nn.ReLUForward4(pre)
			} else {
				cur = pre
			}
		case nn.Pool:
			d.t4In[li] = cur
			y, arg := nn.MaxPoolForward(cur, l.KH, l.KW, l.Stride)
			d.arg[li] = arg
			cur = y
		case nn.LRN:
			d.t4In[li] = cur
			y, denom := nn.LRNForward(cur)
			d.denom[li] = denom
			cur = y
		case nn.Dropout:
			// identity
		}
	}
	return cur
}

// Backward propagates the local output-slab gradient back through the
// stack, all-reducing each conv layer's weight gradient over gradComm,
// and returns the per-conv-layer gradients (in slot order).
func (d *domainStack) Backward(dy *tensor.Tensor4, lastW int) []*tensor.Matrix {
	grads := make([]*tensor.Matrix, len(d.weights))
	cur := dy
	for li := d.stopLi - 1; li >= 0; li-- {
		l := &d.spec.Layers[li]
		switch l.Kind {
		case nn.Dropout:
			// identity
		case nn.LRN:
			cur = nn.LRNBackward(cur, d.t4In[li], d.denom[li])
		case nn.Pool:
			cur = nn.MaxPoolBackward(cur, d.arg[li], d.t4In[li])
		case nn.Conv:
			if li != lastW {
				cur = nn.ReLUBackward4(cur, d.pre[li])
			}
			ext := d.xExt[li]
			haloT := d.haloT[li]
			// Place the local output gradient at its position in the
			// extended frame; halo output rows belong to the neighbours.
			dyExt := tensor.NewTensor4(ext.N, l.OutC, ext.H, ext.W)
			dyExt.SetRowsH(haloT, cur)
			if li == 0 {
				// No ∆X past the first layer (Eq. 3's i ≥ 2 bound).
				grads[d.slot[li]] = AllReduceMat(d.gradComm, nn.ConvGradWeights(ext, dyExt, l.KH, l.KW, 1, l.Pad))
				continue
			}
			dxExt, dw := nn.ConvBackward(ext, d.weights[d.slot[li]], dyExt, l.KH, l.KW, 1, l.Pad)
			grads[d.slot[li]] = AllReduceMat(d.gradComm, dw)
			cur = d.foldHaloGrad(dxExt, haloT, cur.H)
		}
	}
	return grads
}

// foldHaloGrad extracts this rank's slab from an extended input gradient
// and exchanges the halo-row contributions with neighbours (the backward
// halo exchange of Eq. 7), accumulating what they computed for our rows.
func (d *domainStack) foldHaloGrad(dxExt *tensor.Tensor4, haloT, ownH int) *tensor.Tensor4 {
	r, p := d.comm.Rank(), d.comm.Size()
	own := dxExt.SliceRowsH(haloT, haloT+ownH)
	haloB := dxExt.H - haloT - ownH
	if r > 0 && haloT > 0 {
		d.comm.ISend(r-1, tagGradUp, dxExt.SliceRowsH(0, haloT).Data)
	}
	if r < p-1 && haloB > 0 {
		d.comm.ISend(r+1, tagGradDown, dxExt.SliceRowsH(haloT+ownH, dxExt.H).Data)
	}
	if r < p-1 && haloB > 0 {
		got := d.comm.Recv(r+1, tagGradUp) // their top-halo grad = our bottom rows
		t := tensor.Tensor4{N: own.N, C: own.C, H: haloB, W: own.W, Data: got}
		for n := 0; n < own.N; n++ {
			for c := 0; c < own.C; c++ {
				for h := 0; h < haloB; h++ {
					for w := 0; w < own.W; w++ {
						own.Add(n, c, ownH-haloB+h, w, t.At(n, c, h, w))
					}
				}
			}
		}
	}
	if r > 0 && haloT > 0 {
		got := d.comm.Recv(r-1, tagGradDown) // their bottom-halo grad = our top rows
		t := tensor.Tensor4{N: own.N, C: own.C, H: haloT, W: own.W, Data: got}
		for n := 0; n < own.N; n++ {
			for c := 0; c < own.C; c++ {
				for h := 0; h < haloT; h++ {
					for w := 0; w < own.W; w++ {
						own.Add(n, c, h, w, t.At(n, c, h, w))
					}
				}
			}
		}
	}
	return own
}

// Apply updates the replicated conv filters with the (already reduced,
// hence identical) gradients.
func (d *domainStack) Apply(opt nn.Optimizer, grads []*tensor.Matrix) {
	opt.Step(d.weights, grads)
}

// OutShape returns the spatial stack's full (unsharded) output shape.
func (d *domainStack) OutShape() nn.Shape {
	if d.stopLi == 0 {
		return d.spec.Input
	}
	return d.spec.Layers[d.stopLi-1].Out
}
