package machine

import (
	"fmt"
	"strings"
)

// Link is the α–β description of one link level of a hierarchical
// interconnect: Alpha is the per-message latency in seconds, Beta the
// inverse bandwidth in seconds per word (WordBytes bytes), exactly as in
// the flat Machine.
type Link struct {
	Alpha float64
	Beta  float64
}

// BandwidthBytes returns the link bandwidth in bytes per second.
func (l Link) BandwidthBytes() float64 { return WordBytes / l.Beta }

// validate reports an error when the link constants are not physical.
func (l Link) validate(name, level string) error {
	if l.Alpha < 0 {
		return fmt.Errorf("machine %q: negative %s latency %g", name, level, l.Alpha)
	}
	if l.Beta <= 0 {
		return fmt.Errorf("machine %q: non-positive %s inverse bandwidth %g", name, level, l.Beta)
	}
	return nil
}

// MaxLevels caps the depth of a hierarchical topology. Six levels is
// far deeper than any published machine description (rank → node →
// rack → switch → spine already stops at five), and the fixed bound
// lets the collective cost carry its per-level attribution in a
// comparable fixed-size array and the timeline simulator reserve one
// contention lane per level.
const MaxLevels = 6

// Level is one rung of a hierarchical machine: a link and the number of
// consecutive machine ranks that share a group at that rung. Levels are
// listed innermost first (node before rack before spine); messages
// between two ranks travel the link of the innermost level whose group
// contains both.
type Level struct {
	Name string
	// Link is the α–β cost of crossing between this level's sub-units
	// (between ranks for the innermost level, between that level's
	// groups for the next, and so on).
	Link Link
	// GroupSize is the number of consecutive machine ranks in one group
	// at this level (rank r belongs to group ⌊r/GroupSize⌋). Sizes grow
	// strictly outward and each must divide the next. The outermost
	// level uses 0: a single group spanning the whole machine, whatever
	// the process count.
	GroupSize int
}

// Topology is a hierarchical machine: an ordered list of link levels,
// innermost first. It generalizes the paper's flat α–β assumption to
// the machines it cites — Cori's Aries network between nodes, shared
// memory or NVLink within one (cf. the multi-GPU nodes of Yadan et al.)
// and, beyond them, racks behind a spine switch — so that the cost of a
// collective depends on where its group's ranks actually sit.
//
// The flat Machine is the one-level special case: Flat(m) has a single
// level carrying the machine's α–β, and every costing layer treats an
// identical-link topology of any depth exactly as the flat machine
// (same closed forms, same single network resource in the timeline
// simulator).
type Topology struct {
	Name string
	// Levels lists the link levels, innermost first. At least one; the
	// last must have GroupSize 0 (the whole machine).
	Levels []Level
	// PeakFlops is the per-process peak floating-point rate (FLOP/s),
	// as in Machine.
	PeakFlops float64
}

// Flat lifts a flat Machine into the one-level Topology special case:
// a single link level spanning the whole machine. All topology-aware
// costs collapse to the flat formulas on it.
func Flat(m Machine) Topology {
	return Topology{
		Name:      m.Name,
		Levels:    []Level{{Name: "net", Link: Link{Alpha: m.Alpha, Beta: m.Beta}}},
		PeakFlops: m.PeakFlops,
	}
}

// TwoLevel builds the two-level node/cluster topology that PR 3
// hard-coded as the Intra/Inter pair: ranks are packed ranksPerNode per
// node, messages within a node travel intra, messages crossing a node
// boundary travel inter.
func TwoLevel(name string, intra, inter Link, ranksPerNode int, peakFlops float64) Topology {
	return Topology{
		Name: name,
		Levels: []Level{
			{Name: "node", Link: intra, GroupSize: ranksPerNode},
			{Name: "cluster", Link: inter},
		},
		PeakFlops: peakFlops,
	}
}

// CoriKNLNodes returns the Table 1 machine with its Aries network as the
// inter-node level (α = 2 µs, 1/β = 6 GB/s) and a shared-memory
// intra-node level (α = 0.5 µs, 1/β = 60 GB/s — ten times the Aries
// bandwidth, the illustrative two-level setting of the topology study)
// for ranksPerNode processes per node.
func CoriKNLNodes(ranksPerNode int) Topology {
	m := CoriKNL()
	return TwoLevel(
		fmt.Sprintf("%s-%dppn", m.Name, ranksPerNode),
		Link{Alpha: 5e-7, Beta: WordBytes / 60e9},
		Link{Alpha: m.Alpha, Beta: m.Beta},
		ranksPerNode, m.PeakFlops)
}

// IsZero reports whether the topology is the zero value (i.e. unset —
// callers fall back to a flat machine).
func (t Topology) IsZero() bool {
	return t.Name == "" && len(t.Levels) == 0 && t.PeakFlops == 0
}

// Depth returns the number of link levels.
func (t Topology) Depth() int { return len(t.Levels) }

// Uniform reports whether every level's link is identical, in which
// case the topology is indistinguishable from a flat machine and every
// cost function uses the flat closed forms exactly.
func (t Topology) Uniform() bool {
	for _, lv := range t.Levels[1:] {
		if lv.Link != t.Levels[0].Link {
			return false
		}
	}
	return true
}

// Intra returns the innermost level's link — the two-level Intra field
// of the pre-refactor representation.
func (t Topology) Intra() Link { return t.Levels[0].Link }

// Inter returns the outermost level's link — the two-level Inter field
// of the pre-refactor representation.
func (t Topology) Inter() Link { return t.Levels[len(t.Levels)-1].Link }

// RanksPerNode returns the innermost level's group size (1 for a flat,
// one-level topology, where every rank is its own node).
func (t Topology) RanksPerNode() int {
	if gs := t.Levels[0].GroupSize; gs > 0 {
		return gs
	}
	return 1
}

// GroupOf returns the index of the level-`level` group that machine
// rank `rank` belongs to (0 for an unbounded outermost level).
func (t Topology) GroupOf(rank, level int) int {
	if gs := t.Levels[level].GroupSize; gs > 0 {
		return rank / gs
	}
	return 0
}

// GroupSizes returns the per-level group sizes, innermost first — the
// classification input of grid.SpanOf.
func (t Topology) GroupSizes() []int {
	sizes := make([]int, len(t.Levels))
	for i, lv := range t.Levels {
		sizes[i] = lv.GroupSize
	}
	return sizes
}

// LevelNames returns the per-level names, innermost first.
func (t Topology) LevelNames() []string {
	names := make([]string, len(t.Levels))
	for i, lv := range t.Levels {
		names[i] = lv.Name
	}
	return names
}

// Machine returns the flat α–β view of the topology at the outermost
// level — the conservative single-level machine a topology-unaware
// consumer should see (every link priced as if it crossed the slowest
// boundary).
func (t Topology) Machine() Machine {
	l := t.Inter()
	return Machine{Name: t.Name, Alpha: l.Alpha, Beta: l.Beta, PeakFlops: t.PeakFlops}
}

// Validate reports an error when the topology constants are not
// physical or the level structure is inconsistent.
func (t Topology) Validate() error {
	if len(t.Levels) == 0 {
		return fmt.Errorf("machine %q: a topology needs at least one level", t.Name)
	}
	if len(t.Levels) > MaxLevels {
		return fmt.Errorf("machine %q: %d levels exceed the maximum %d", t.Name, len(t.Levels), MaxLevels)
	}
	prev := 0
	for i, lv := range t.Levels {
		label := lv.Name
		if label == "" {
			label = fmt.Sprintf("level %d", i)
		}
		if err := lv.Link.validate(t.Name, label); err != nil {
			return err
		}
		last := i == len(t.Levels)-1
		if last {
			if lv.GroupSize != 0 {
				return fmt.Errorf("machine %q: outermost level %q must have GroupSize 0 (the whole machine), got %d",
					t.Name, label, lv.GroupSize)
			}
			continue
		}
		if lv.GroupSize < 1 {
			return fmt.Errorf("machine %q: level %q needs a group size ≥ 1, got %d", t.Name, label, lv.GroupSize)
		}
		if i > 0 {
			if lv.GroupSize <= prev {
				return fmt.Errorf("machine %q: level %q group size %d must exceed the inner level's %d",
					t.Name, label, lv.GroupSize, prev)
			}
			if lv.GroupSize%prev != 0 {
				return fmt.Errorf("machine %q: level %q group size %d must be a multiple of the inner level's %d",
					t.Name, label, lv.GroupSize, prev)
			}
		}
		prev = lv.GroupSize
	}
	if t.PeakFlops <= 0 {
		return fmt.Errorf("machine %q: non-positive peak flops %g", t.Name, t.PeakFlops)
	}
	return nil
}

// String formats the topology like Table 1, one clause per level.
func (t Topology) String() string {
	if len(t.Levels) == 0 {
		return t.Name
	}
	if t.Depth() == 1 {
		return t.Machine().String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", t.Name)
	for i, lv := range t.Levels {
		if i > 0 {
			b.WriteByte(',')
		}
		name := lv.Name
		if name == "" {
			name = fmt.Sprintf("l%d", i)
		}
		fmt.Fprintf(&b, " %s", name)
		if lv.GroupSize > 0 {
			fmt.Fprintf(&b, "[%d ranks]", lv.GroupSize)
		}
		fmt.Fprintf(&b, " alpha=%.3gs 1/beta=%.3g GB/s", lv.Link.Alpha, lv.Link.BandwidthBytes()/1e9)
	}
	fmt.Fprintf(&b, ", peak=%.3g TFLOP/s", t.PeakFlops/1e12)
	return b.String()
}
