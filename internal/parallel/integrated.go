package parallel

import (
	"fmt"

	"dnnparallel/internal/mpi"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// fc15D executes the fully-connected suffix of a network with the paper's
// 1.5D algorithm (Fig. 5) on a Pr × Pc grid: each process holds 1/Pr of
// every FC weight matrix (replicated Pc times) and works on the batch
// shard of its column (replicated Pr times). Forward all-gathers the
// local activation panel over the column group (Pr ranks); backward
// all-reduces ∆X over the column group and ∆W over the row group
// (Pc ranks) — exactly the three Eq. 8 terms.
type fc15D struct {
	spec    *nn.Network
	startLi int // first FC layer
	lastW   int
	rowComm *mpi.Comm // Pc ranks sharing my weight shard
	colComm *mpi.Comm // Pr ranks sharing my batch shard
	pr      int
	r       int

	shards []*tensor.Matrix
	slot   map[int]int
	matIn  []*tensor.Matrix
	matPre []*tensor.Matrix
}

func newFC15D(spec *nn.Network, ref *nn.Model, rowComm, colComm *mpi.Comm) *fc15D {
	f := &fc15D{
		spec: spec, startLi: spatialPrefixEnd(spec),
		rowComm: rowComm, colComm: colComm,
		pr: colComm.Size(), r: colComm.Rank(),
		slot:   map[int]int{},
		matIn:  make([]*tensor.Matrix, len(spec.Layers)),
		matPre: make([]*tensor.Matrix, len(spec.Layers)),
	}
	for _, li := range spec.WeightedLayers() {
		f.lastW = li
		if li < f.startLi {
			continue
		}
		full := ref.Weights[ref.WeightSlot(li)]
		f.slot[li] = len(f.shards)
		f.shards = append(f.shards, RowShard(full, f.pr, f.r))
	}
	return f
}

// Forward maps the local batch panel (d × B/Pc, full rows) to logits.
func (f *fc15D) Forward(cur *tensor.Matrix) *tensor.Matrix {
	for li := f.startLi; li < len(f.spec.Layers); li++ {
		l := &f.spec.Layers[li]
		switch l.Kind {
		case nn.FC:
			f.matIn[li] = cur
			local := nn.DenseForward(f.shards[f.slot[li]], cur)
			pre := GatherMatrixRows(f.colComm, local, l.OutN) // Eq. 8 all-gather over Pr
			f.matPre[li] = pre
			if li != f.lastW {
				cur = nn.ReLUForward(pre)
			} else {
				cur = pre
			}
		case nn.Dropout:
			// identity
		default:
			panic(fmt.Sprintf("parallel: fc15D met %v layer %s", l.Kind, l.Name))
		}
	}
	return cur
}

// Backward consumes the globally-scaled logits gradient, all-reduces each
// ∆W over the row group, updates nothing, and returns (per-slot grads,
// the ∆X of the first FC layer's input — nil when the FC stack starts the
// network, mirroring the serial model's Eq. 3 i ≥ 2 skip).
func (f *fc15D) Backward(dlogits *tensor.Matrix) ([]*tensor.Matrix, *tensor.Matrix) {
	grads := make([]*tensor.Matrix, len(f.shards))
	d := dlogits
	for li := len(f.spec.Layers) - 1; li >= f.startLi; li-- {
		l := &f.spec.Layers[li]
		switch l.Kind {
		case nn.Dropout:
			continue
		case nn.FC:
		}
		if li != f.lastW {
			d = nn.ReLUBackward(d, f.matPre[li])
		}
		dyShard := RowShard(d, f.pr, f.r)
		partialW := nn.DenseGradWeights(dyShard, f.matIn[li])
		grads[f.slot[li]] = AllReduceMat(f.rowComm, partialW) // Eq. 8 ∆W all-reduce over Pc
		if li == 0 {
			return grads, nil
		}
		partialX := nn.DenseBackwardInput(f.shards[f.slot[li]], dyShard)
		d = AllReduceMat(f.colComm, partialX) // Eq. 8 ∆X all-reduce over Pr
		if li == f.startLi {
			return grads, d
		}
	}
	return grads, nil
}

// Apply updates the local weight shards with the given optimizer (state
// is per-matrix, so shard-local optimizer state matches serial exactly).
func (f *fc15D) Apply(opt nn.Optimizer, grads []*tensor.Matrix) {
	opt.Step(f.shards, grads)
}

// Assemble all-gathers the shards into full weight matrices (one per FC
// layer, in slot order). Every rank of the column group must call it.
func (f *fc15D) Assemble() []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(f.shards))
	for i, s := range f.shards {
		out[i] = GatherMatrixRows(f.colComm, s, s.Rows*f.pr)
	}
	return out
}
