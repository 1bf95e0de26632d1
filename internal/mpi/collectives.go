package mpi

import "fmt"

// Collective algorithms. These are the algorithms the paper's cost
// formulas assume (Section 2.2, citing Thakur et al.): Bruck for
// all-gather, bandwidth-optimal recursive halving/doubling for all-reduce
// on power-of-two groups (with a ring fallback for other sizes — same
// bandwidth term, different latency term).

// Tag space: collectives use negative tags so they can never collide with
// engine-level point-to-point tags (which must be ≥ 0).
const (
	tagAllGather = -1 - iota
	tagReduceScatter
	tagAllGatherRD
	tagRing
)

// AllGather gathers equal-sized local blocks from every rank and returns
// them concatenated in comm-rank order. Implemented with Bruck's
// algorithm: ⌈log₂ p⌉ steps moving (p−1)/p·n words total.
func (c *Comm) AllGather(local []float64) []float64 {
	p := c.Size()
	n := len(local)
	if p == 1 {
		out := make([]float64, n)
		copy(out, local)
		return out
	}
	// Working buffer holds blocks in rotated order: position k holds the
	// block of comm rank (c.rank + k) mod p.
	buf := make([]float64, n*p)
	copy(buf[:n], local)
	have := 1
	for step := 1; have < p; step++ {
		send := have
		if send > p-have {
			send = p - have
		}
		dst := (c.rank - have + p) % p
		src := (c.rank + have) % p
		got := c.SendRecv(dst, tagAllGather, buf[:send*n], src, tagAllGather)
		copy(buf[have*n:], got)
		have += send
	}
	// Un-rotate: block for comm rank r lives at position (r − c.rank) mod p.
	out := make([]float64, n*p)
	for r := 0; r < p; r++ {
		k := (r - c.rank + p) % p
		copy(out[r*n:(r+1)*n], buf[k*n:(k+1)*n])
	}
	return out
}

// AllReduceSum returns the element-wise sum of in across the communicator
// on every rank. Power-of-two groups use recursive-halving reduce-scatter
// followed by recursive-doubling all-gather (2·log₂ p steps,
// 2·(p−1)/p·n words — exactly the paper's Eq. 4 cost shape); other sizes
// use the ring algorithm (same bandwidth, 2·(p−1) latency steps).
func (c *Comm) AllReduceSum(in []float64) []float64 {
	p := c.Size()
	out := make([]float64, len(in))
	copy(out, in)
	if p == 1 {
		return out
	}
	if p&(p-1) == 0 {
		c.allReduceRecursive(out)
	} else {
		c.allReduceRing(out)
	}
	return out
}

// allReduceRecursive performs recursive-halving reduce-scatter +
// recursive-doubling all-gather in place. p must be a power of two.
func (c *Comm) allReduceRecursive(buf []float64) {
	p := c.Size()
	lo, hi := 0, len(buf)
	// Reduce-scatter: exchange the half the partner owns, keep reducing
	// our own half. Partner distance halves each step.
	type span struct{ lo, hi int }
	var spans []span
	for dist := p / 2; dist >= 1; dist /= 2 {
		partner := c.rank ^ dist
		mid := lo + (hi-lo)/2
		var sendLo, sendHi, keepLo, keepHi int
		if c.rank < partner {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		got := c.SendRecv(partner, tagReduceScatter, buf[sendLo:sendHi], partner, tagReduceScatter)
		if len(got) != keepHi-keepLo {
			panic(fmt.Sprintf("mpi: reduce-scatter size mismatch %d vs %d", len(got), keepHi-keepLo))
		}
		for i, v := range got {
			buf[keepLo+i] += v
		}
		spans = append(spans, span{keepLo, keepHi})
		lo, hi = keepLo, keepHi
	}
	// All-gather back: retrace the halving in reverse, exchanging the
	// owned segment with the same partners (distance p>>(i+1) at step i).
	for i := len(spans) - 1; i >= 0; i-- {
		dist := p >> (i + 1)
		partner := c.rank ^ dist
		s := spans[i]
		var parentLo, parentHi int
		if i == 0 {
			parentLo, parentHi = 0, len(buf)
		} else {
			parentLo, parentHi = spans[i-1].lo, spans[i-1].hi
		}
		got := c.SendRecv(partner, tagAllGatherRD, buf[s.lo:s.hi], partner, tagAllGatherRD)
		// The partner owns the other half of the parent span.
		if s.lo == parentLo {
			copy(buf[s.hi:parentHi], got)
		} else {
			copy(buf[parentLo:s.lo], got)
		}
	}
}

// allReduceRing performs the classic ring all-reduce in place for any
// communicator size: p−1 reduce-scatter steps plus p−1 all-gather steps
// over near-equal blocks.
func (c *Comm) allReduceRing(buf []float64) {
	p := c.Size()
	n := len(buf)
	blockAt := func(i int) (int, int) {
		i = ((i % p) + p) % p
		base, rem := n/p, n%p
		lo := i*base + min(i, rem)
		size := base
		if i < rem {
			size++
		}
		return lo, lo + size
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	// Reduce-scatter ring.
	for step := 0; step < p-1; step++ {
		sLo, sHi := blockAt(c.rank - step)
		got := c.SendRecv(next, tagRing, buf[sLo:sHi], prev, tagRing)
		rLo, rHi := blockAt(c.rank - step - 1)
		if len(got) != rHi-rLo {
			panic("mpi: ring block size mismatch")
		}
		for i, v := range got {
			buf[rLo+i] += v
		}
	}
	// All-gather ring.
	for step := 0; step < p-1; step++ {
		sLo, sHi := blockAt(c.rank + 1 - step)
		got := c.SendRecv(next, tagRing, buf[sLo:sHi], prev, tagRing)
		rLo, rHi := blockAt(c.rank - step)
		copy(buf[rLo:rHi], got)
	}
}
