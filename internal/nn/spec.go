// Package nn defines neural networks two ways:
//
//  1. An *analytic* spec (Layer, Network) carrying exactly the quantities
//     the paper's cost formulas consume — per-layer weight counts |W_i|
//     (Eq. 2), input/output activation sizes d_{i-1}, d_i, spatial shapes
//     for the halo terms of Eq. 7, and FLOP counts for the compute model.
//
//  2. *Executable* kernels and a reference Model (kernels.go, model.go)
//     implementing real forward/backward passes, used by the simulated
//     distributed engines in internal/parallel to verify that every
//     parallelization is gradient-exact versus serial SGD.
package nn

import "fmt"

// Shape is a spatial activation shape: height × width × channels.
// Fully-connected activations use H = W = 1.
type Shape struct {
	H, W, C int
}

// Size returns the number of activations d = H·W·C.
func (s Shape) Size() int { return s.H * s.W * s.C }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// LayerKind enumerates the layer types of Section 2.1.
type LayerKind int

const (
	// Conv is a convolutional layer (implicitly followed by ReLU).
	Conv LayerKind = iota
	// Pool is a max-pooling layer.
	Pool
	// FC is a fully-connected layer (implicitly followed by ReLU except
	// for the final classifier layer).
	FC
	// Dropout prunes activations on FC layers; it carries no weights and
	// no communication in the paper's analysis.
	Dropout
	// LRN is local response normalization (AlexNet); weightless.
	LRN
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Pool:
		return "pool"
	case FC:
		return "fc"
	case Dropout:
		return "dropout"
	case LRN:
		return "lrn"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// Layer is one layer of a network spec. In and Out are filled by
// Network.Infer.
type Layer struct {
	Kind LayerKind
	Name string

	// Convolution / pooling geometry.
	KH, KW, Stride, Pad int
	// OutC is the number of convolution filters Y_C.
	OutC int
	// OutN is the fully-connected output width.
	OutN int
	// Rate is the dropout rate (Dropout only).
	Rate float64

	// In and Out are the activation shapes, computed by Infer.
	In, Out Shape
}

// Weights returns |W_i| from Eq. 2: (kh·kw·X_C)·Y_C for conv layers,
// d_{i-1}·d_i for fully-connected layers, 0 otherwise. Biases are ignored,
// as in the paper.
func (l *Layer) Weights() int {
	switch l.Kind {
	case Conv:
		return l.KH * l.KW * l.In.C * l.OutC
	case FC:
		return l.In.Size() * l.OutN
	default:
		return 0
	}
}

// InSize returns d_{i-1}, the input activation count per sample.
func (l *Layer) InSize() int { return l.In.Size() }

// OutSize returns d_i, the output activation count per sample.
func (l *Layer) OutSize() int { return l.Out.Size() }

// HasWeights reports whether the layer participates in the weighted-layer
// sums of Eqs. 3–9.
func (l *Layer) HasWeights() bool { return l.Kind == Conv || l.Kind == FC }

// ForwardFLOPsPerSample returns the multiply-add count (×2) of the
// forward pass for one sample: 2·kh·kw·X_C·Y_H·Y_W·Y_C for conv,
// 2·d_{i-1}·d_i for FC. Backprop costs exactly twice the forward pass
// (∆X and ∆W are each one more GEMM of the same size).
func (l *Layer) ForwardFLOPsPerSample() float64 {
	switch l.Kind {
	case Conv:
		return 2 * float64(l.KH*l.KW*l.In.C) * float64(l.Out.H*l.Out.W*l.OutC)
	case FC:
		return 2 * float64(l.In.Size()) * float64(l.OutN)
	case Pool:
		return float64(l.KH * l.KW * l.Out.Size())
	default:
		return 0
	}
}

// TrainFLOPsPerSample returns forward + backward FLOPs for one sample
// (3 GEMMs total for weighted layers, per the paper's introduction).
func (l *Layer) TrainFLOPsPerSample() float64 {
	f := l.ForwardFLOPsPerSample()
	if l.HasWeights() {
		return 3 * f
	}
	return 2 * f
}

// outputShape computes the layer's output shape from an input shape,
// using the floor convention OH = (H + 2·pad − k)/stride + 1 (the paper's
// ceil form with proper padding agrees on all AlexNet layers).
func (l *Layer) outputShape(in Shape) (Shape, error) {
	switch l.Kind {
	case Conv, Pool:
		if l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 {
			return Shape{}, fmt.Errorf("layer %s: bad geometry k=%dx%d stride=%d", l.Name, l.KH, l.KW, l.Stride)
		}
		oh := (in.H+2*l.Pad-l.KH)/l.Stride + 1
		ow := (in.W+2*l.Pad-l.KW)/l.Stride + 1
		if oh <= 0 || ow <= 0 {
			return Shape{}, fmt.Errorf("layer %s: kernel %dx%d does not fit input %v", l.Name, l.KH, l.KW, in)
		}
		oc := in.C
		if l.Kind == Conv {
			if l.OutC <= 0 {
				return Shape{}, fmt.Errorf("layer %s: conv needs OutC > 0", l.Name)
			}
			oc = l.OutC
		}
		return Shape{H: oh, W: ow, C: oc}, nil
	case FC:
		if l.OutN <= 0 {
			return Shape{}, fmt.Errorf("layer %s: fc needs OutN > 0", l.Name)
		}
		return Shape{H: 1, W: 1, C: l.OutN}, nil
	case Dropout, LRN:
		return in, nil
	}
	return Shape{}, fmt.Errorf("layer %s: unknown kind %v", l.Name, l.Kind)
}

// Network is an ordered stack of layers with a fixed input shape.
type Network struct {
	Name   string
	Input  Shape
	Layers []Layer

	inferred bool
	// weighted and classes are recorded by Infer: the indices of the
	// weighted layers, and each weighted position's layer class.
	weighted, classes []int
}

// Infer computes every layer's In/Out shape, validating the stack, and
// records the weighted layers and their classes (see LayerClasses).
// It must be called (directly or via the preset constructors) before any
// of the aggregate queries, and again after any change to Layers.
func (n *Network) Infer() error {
	in := n.Input
	if in.Size() <= 0 {
		return fmt.Errorf("network %s: empty input shape", n.Name)
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		l.In = in
		out, err := l.outputShape(in)
		if err != nil {
			return fmt.Errorf("network %s layer %d: %w", n.Name, i, err)
		}
		l.Out = out
		in = out
	}
	n.weighted, n.classes = classify(n.Layers)
	n.inferred = true
	return nil
}

// classify returns the indices of the weighted layers and the class of
// each weighted position: the earliest weighted position whose layer
// equals it in every field but Name. Position 0 always forms a class of
// its own, because it alone has no ∆X all-reduce. Both slices are newly
// allocated with cap == len, so re-inferring a copy of a Network never
// writes into the slices the original hands out.
func classify(layers []Layer) (weighted, classes []int) {
	n := 0
	for i := range layers {
		if layers[i].HasWeights() {
			n++
		}
	}
	weighted = make([]int, 0, n)
	classes = make([]int, 0, n)
	for i := range layers {
		if !layers[i].HasWeights() {
			continue
		}
		k := len(weighted)
		c := k
		for r := 1; r < k; r++ {
			if classes[r] == r && sameButName(&layers[weighted[r]], &layers[i]) {
				c = r
				break
			}
		}
		weighted = append(weighted, i)
		classes = append(classes, c)
	}
	return weighted, classes
}

// sameButName reports whether a and b are equal in every field but Name.
func sameButName(a, b *Layer) bool {
	x, y := *a, *b
	x.Name, y.Name = "", ""
	return x == y
}

func (n *Network) mustInferred() {
	if !n.inferred {
		if err := n.Infer(); err != nil {
			panic(err)
		}
	}
}

// Output returns the network's final activation shape.
func (n *Network) Output() Shape {
	n.mustInferred()
	if len(n.Layers) == 0 {
		return n.Input
	}
	return n.Layers[len(n.Layers)-1].Out
}

// TotalWeights returns Σ_i |W_i|.
func (n *Network) TotalWeights() int {
	n.mustInferred()
	t := 0
	for i := range n.Layers {
		t += n.Layers[i].Weights()
	}
	return t
}

// WeightedLayers returns the indices of layers with weights, in order —
// the index set of the paper's per-layer sums. The slice is the one
// recorded by Infer, shared by every caller: it is read-only, and its
// cap equals its len, so an append copies it.
func (n *Network) WeightedLayers() []int {
	n.mustInferred()
	return n.weighted
}

// LayerClasses returns, for each weighted position k (an index into
// WeightedLayers), the class of that layer: the earliest weighted
// position whose Layer equals it in every field but Name. Position 0 is
// always alone in its class. The Eq. 3–9 terms and the compute split of
// a weighted layer depend on its fields and never on its name, and only
// position 0 is priced differently by position, so every member of a
// class prices like its first member on the same grid, batch and rank
// block — the pricing loops price a class once and copy. Like
// WeightedLayers, the slice is recorded by Infer and read-only.
func (n *Network) LayerClasses() []int {
	n.mustInferred()
	return n.classes
}

// ConvLayers returns the indices of convolutional layers.
func (n *Network) ConvLayers() []int {
	n.mustInferred()
	var idx []int
	for i := range n.Layers {
		if n.Layers[i].Kind == Conv {
			idx = append(idx, i)
		}
	}
	return idx
}

// FCLayers returns the indices of fully-connected layers.
func (n *Network) FCLayers() []int {
	n.mustInferred()
	var idx []int
	for i := range n.Layers {
		if n.Layers[i].Kind == FC {
			idx = append(idx, i)
		}
	}
	return idx
}

// TrainFLOPsPerSample returns the forward+backward FLOPs for one sample
// over the whole network.
func (n *Network) TrainFLOPsPerSample() float64 {
	n.mustInferred()
	var f float64
	for i := range n.Layers {
		f += n.Layers[i].TrainFLOPsPerSample()
	}
	return f
}

// Validate re-runs inference and sanity checks.
func (n *Network) Validate() error { return n.Infer() }

// Summary renders a per-layer table (shapes, |W_i|, FLOPs) for README-style
// output.
func (n *Network) Summary() string {
	n.mustInferred()
	s := fmt.Sprintf("%s (input %v, %d layers, %d weights)\n", n.Name, n.Input, len(n.Layers), n.TotalWeights())
	for i := range n.Layers {
		l := &n.Layers[i]
		s += fmt.Sprintf("  %2d %-8s %-7s in=%-12v out=%-12v |W|=%-10d flops/sample=%.3g\n",
			i, l.Name, l.Kind, l.In, l.Out, l.Weights(), l.TrainFLOPsPerSample())
	}
	return s
}
