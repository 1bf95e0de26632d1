// Package collective provides closed-form α–β costs for the collective
// operations the paper's analysis assumes (Section 2.2, citing Thakur,
// Rabenseifner & Gropp): Bruck's algorithm for all-gather and the ring
// (reduce-scatter + all-gather) algorithm for all-reduce.
//
// All "words" arguments are the *total* result size n in words:
//   - AllGather: each of p processes contributes n/p words and ends with n.
//   - AllReduce: every process starts and ends with n words.
//
// These are the same conventions the paper's Eqs. 3–9 use, where for
// example the all-gather of activations Y_i costs
// α⌈log p⌉ + β·(p-1)/p·(B·d_i) with n = B·d_i.
package collective

import (
	"math/bits"

	"dnnparallel/internal/machine"
)

// Cost is an α–β cost split into its latency and bandwidth components.
type Cost struct {
	Latency   float64 // seconds spent in per-message latency (α terms)
	Bandwidth float64 // seconds spent moving words (β terms)

	// Levels attributes the total to the link levels of a hierarchical
	// machine.Topology, innermost first (Levels[0] is the intra-node
	// portion of a two-level node/cluster machine, Levels[1] its
	// inter-node portion). Flat costs (and costs priced on a uniform
	// topology) leave every entry zero — the whole total belongs to the
	// machine's single link; topology-aware costs satisfy
	// ΣLevels = Total() (up to rounding), and the timeline simulator
	// schedules each portion on its own link resource. A fixed-size
	// array (bounded by machine.MaxLevels) keeps Cost comparable and
	// allocation-free.
	Levels [machine.MaxLevels]float64
}

// Total returns latency + bandwidth seconds.
func (c Cost) Total() float64 { return c.Latency + c.Bandwidth }

// Level returns the seconds attributed to link level i.
func (c Cost) Level(i int) float64 { return c.Levels[i] }

// LevelSum returns the seconds attributed across all link levels —
// Total() for leveled costs, 0 for flat ones.
func (c Cost) LevelSum() float64 {
	var sum float64
	for _, v := range c.Levels {
		sum += v
	}
	return sum
}

// Leveled reports whether the cost carries a per-level attribution
// (i.e. was priced against a non-uniform topology).
func (c Cost) Leveled() bool {
	for _, v := range c.Levels {
		if v != 0 {
			return true
		}
	}
	return false
}

// Add returns the element-wise sum of two costs.
func (c Cost) Add(d Cost) Cost {
	out := Cost{Latency: c.Latency + d.Latency, Bandwidth: c.Bandwidth + d.Bandwidth}
	for i := range out.Levels {
		out.Levels[i] = c.Levels[i] + d.Levels[i]
	}
	return out
}

// Accumulate adds d into c in place — the loop-accumulator form of Add,
// which spares the planner's per-candidate summations a 64-byte struct
// copy per term.
func (c *Cost) Accumulate(d *Cost) {
	c.Latency += d.Latency
	c.Bandwidth += d.Bandwidth
	for i := range c.Levels {
		c.Levels[i] += d.Levels[i]
	}
}

// Scale returns the cost multiplied by s (e.g. iterations per epoch).
func (c Cost) Scale(s float64) Cost {
	out := Cost{Latency: c.Latency * s, Bandwidth: c.Bandwidth * s}
	for i := range out.Levels {
		out.Levels[i] = c.Levels[i] * s
	}
	return out
}

// CeilLog2 returns ⌈log2 p⌉ with CeilLog2(1) = 0, as used in the paper's
// latency terms.
func CeilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// AllGather returns the cost of gathering a total of words words across p
// processes with Bruck's algorithm: α⌈log p⌉ + β·(p-1)/p·n.
func AllGather(p int, words float64, m machine.Machine) Cost {
	if p <= 1 {
		return Cost{}
	}
	return Cost{
		Latency:   m.Alpha * float64(CeilLog2(p)),
		Bandwidth: m.Beta * words * float64(p-1) / float64(p),
	}
}

// AllReduce returns the cost of all-reducing words words across p processes
// with the ring algorithm as the paper writes it:
// 2·(α⌈log p⌉ + β·(p-1)/p·n). (The classic ring has 2(p-1) latency steps;
// the paper folds latency into ⌈log p⌉ per phase — we match the paper.)
func AllReduce(p int, words float64, m machine.Machine) Cost {
	if p <= 1 {
		return Cost{}
	}
	return Cost{
		Latency:   2 * m.Alpha * float64(CeilLog2(p)),
		Bandwidth: 2 * m.Beta * words * float64(p-1) / float64(p),
	}
}

// ReduceScatter returns the ring reduce-scatter half of an all-reduce:
// α⌈log p⌉ + β·(p-1)/p·n.
func ReduceScatter(p int, words float64, m machine.Machine) Cost {
	if p <= 1 {
		return Cost{}
	}
	return Cost{
		Latency:   m.Alpha * float64(CeilLog2(p)),
		Bandwidth: m.Beta * words * float64(p-1) / float64(p),
	}
}

// PointToPoint returns α + β·n for a single pairwise message of n words —
// the halo-exchange primitive of Eq. 7.
func PointToPoint(words float64, m machine.Machine) Cost {
	return Cost{Latency: m.Alpha, Bandwidth: m.Beta * words}
}

// Broadcast returns the binomial-tree broadcast cost ⌈log p⌉(α + β·n),
// used when redistributing replicated weights at start-up.
func Broadcast(p int, words float64, m machine.Machine) Cost {
	if p <= 1 {
		return Cost{}
	}
	l := float64(CeilLog2(p))
	return Cost{Latency: m.Alpha * l, Bandwidth: m.Beta * words * l}
}
