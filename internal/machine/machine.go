// Package machine models the distributed-memory platform of the paper's
// Table 1: a flat α–β network (Machine) plus a per-process compute
// capability, and the two-level generalization the paper's "Limitations"
// section leaves open (Topology) — distinct intra-node and inter-node α–β
// links with a fixed number of ranks per node.
//
// Conventions (matching Section 2.2 of the paper):
//   - α is the per-message latency in seconds.
//   - β is the inverse bandwidth in seconds per *word*. The paper counts
//     communication volume in words (elements of W, X, Y); deep-learning
//     practice is float32, so a word is 4 bytes and β = WordBytes / bytes-per-second.
//   - Machine is flat: no topology, no congestion — the paper's stated
//     assumption. Topology adds exactly one refinement, a second link
//     level at node boundaries; Flat(m) embeds a Machine as the one-level
//     special case and every cost built on a uniform Topology reproduces
//     the flat numbers exactly.
package machine

import (
	"fmt"
	"strconv"
)

// WordBytes is the size of one communicated word. The paper's platform
// constants (1/β = 6 GB/s) are byte-based; all volume terms in the cost
// formulas count float32 words.
const WordBytes = 4

// Machine is an α–β description of the platform.
type Machine struct {
	Name string
	// Alpha is the network latency per message in seconds.
	Alpha float64
	// Beta is the inverse bandwidth in seconds per word (WordBytes bytes).
	Beta float64
	// PeakFlops is the per-process peak floating-point rate (FLOP/s) used
	// by the compute model.
	PeakFlops float64
}

// CoriKNL returns the platform of Table 1: NERSC Cori phase-II Intel
// Knights Landing nodes. α = 2 µs, 1/β = 6 GB/s. Peak is set to the KNL's
// practically achievable single-precision GEMM rate (≈2.6 TFLOP/s measured
// by Intel for large DGEMM ≈ 2.2 TF double / ~4.4 TF single; we use a
// conservative 3 TFLOP/s — the absolute value only scales Fig. 4's y-axis).
func CoriKNL() Machine {
	return Machine{
		Name:      "Cori-KNL",
		Alpha:     2e-6,
		Beta:      WordBytes / 6e9,
		PeakFlops: 3e12,
	}
}

// Validate reports an error when the machine constants are not physical.
func (m Machine) Validate() error {
	if m.Alpha < 0 {
		return fmt.Errorf("machine %q: negative latency %g", m.Name, m.Alpha)
	}
	if m.Beta <= 0 {
		return fmt.Errorf("machine %q: non-positive inverse bandwidth %g", m.Name, m.Beta)
	}
	if m.PeakFlops <= 0 {
		return fmt.Errorf("machine %q: non-positive peak flops %g", m.Name, m.PeakFlops)
	}
	return nil
}

// BandwidthBytes returns the link bandwidth in bytes per second.
func (m Machine) BandwidthBytes() float64 { return WordBytes / m.Beta }

// String formats the machine like Table 1, its numbers as %.3g
// (strconv's 'g' format at precision 3).
func (m Machine) String() string {
	b := make([]byte, 0, len(m.Name)+64)
	b = append(append(b, m.Name...), ": alpha="...)
	b = append(strconv.AppendFloat(b, m.Alpha, 'g', 3, 64), "s, 1/beta="...)
	b = append(strconv.AppendFloat(b, m.BandwidthBytes()/1e9, 'g', 3, 64), " GB/s, peak="...)
	b = append(strconv.AppendFloat(b, m.PeakFlops/1e12, 'g', 3, 64), " TFLOP/s"...)
	return string(b)
}
