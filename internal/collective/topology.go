// Topology-aware collective costs: the same Eqs. 3–9 primitives priced
// against a hierarchical machine.Topology and the level span of the
// actual collective group (grid.LevelSpan) instead of a flat α–β
// machine.
//
// One recursion covers every group shape (Section 2.3's Pr/Pc groups
// under a rank placement, on a machine of any depth). A level is
// *active* for a group when the group spreads over more than one of
// that level's sub-units (LevelStat.Fanout > 1); inactive levels move
// no data and are skipped. Walking the active levels:
//
//   - All-reduce: reduce-scatter down the levels (each phase shrinks
//     the live shard by its fanout), a flat all-reduce among the
//     topmost level's sub-units, then the all-gathers climb back up.
//     Equivalently — and exactly as computed here — each inner active
//     level pays its reduce-scatter + all-gather pair and the top
//     level a flat all-reduce of the residual shard: Rabenseifner's
//     algorithm generalized from fat nodes to an arbitrary hierarchy.
//   - All-gather: each active level gathers its groups' slice of the
//     result (words·MaxRanks/p for inner levels, the full words at the
//     outermost active level) across its sub-units.
//   - Broadcast: binomial trees fan out from the top level down, full
//     words at every level.
//
// The concurrent per-plane collectives of a level (LevelStat.Planes:
// one plane per rank of the busiest sub-unit) share that sub-unit's
// single uplink, so each level's phase is serialized over its planes
// (serializePlanes) — an all-gather's plane slices telescope back to
// the full-words bandwidth term, while the all-reduce planes each move
// a full per-rank shard and the uplink pays all of them. Groups that
// straddle sub-unit boundaries are therefore genuinely more expensive
// than one-rank-per-unit groups of the same size, which is what a
// per-node NIC (or per-rack uplink) does.
//
// On the two-level node/cluster topology the recursion reproduces the
// PR 3 Intra/Inter formulas bit for bit, and a uniform topology
// (identical links at every level — machine.Flat embeddings of any
// depth) always takes the flat closed form: topology-aware pricing is
// a strict refinement, never a perturbation, of the paper's model.
//
// Results carry their per-level attribution in Cost.Levels so the
// timeline simulator can schedule every link level as its own
// contended resource.
package collective

import (
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// onLink is the flat-machine view of one link level, for reusing the
// closed forms level by level.
func onLink(l machine.Link) machine.Machine {
	return machine.Machine{Alpha: l.Alpha, Beta: l.Beta}
}

// atLevel attributes a single-level cost to link level i.
func atLevel(c Cost, i int) Cost {
	c.Levels[i] = c.Total()
	return c
}

// serializePlanes prices the concurrent per-plane collectives of a
// straddling group forced through each sub-unit's single uplink: a node
// with k local ranks runs k rank planes of the hierarchical
// decomposition "in parallel", but they share one NIC, so their
// upper-level phases serialize end to end (the ROADMAP congestion item
// — previously the planes were modeled as contention-free, i.e. one
// NIC per rank).
func serializePlanes(c Cost, planes int) Cost { return c.Scale(float64(planes)) }

// topActive returns the outermost active level of the span, or −1 when
// no level moves data (a group of ≤ 1 rank).
func topActive(s grid.LevelSpan) int {
	for i := len(s.Levels) - 1; i >= 0; i-- {
		if s.Levels[i].Fanout > 1 {
			return i
		}
	}
	return -1
}

// AllGatherTopo prices the all-gather of words total words over a group
// with level span s: each active level gathers its largest group's
// slice of the result across that group's sub-units, planes serialized
// on the sub-unit uplink.
func AllGatherTopo(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	if s.Ranks <= 1 {
		return Cost{}
	}
	if t.Uniform() {
		return AllGather(s.Ranks, words, t.Machine())
	}
	top := topActive(s)
	var total Cost
	for i := 0; i <= top; i++ {
		lv := s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		// The largest level-i group holds words·MaxRanks/p of the result
		// (all of it at the outermost active level, where MaxRanks = p);
		// each of the Planes rank planes gathers its own slice of that,
		// serialized on the uplink — the bandwidth term telescopes back
		// to the group chunk while each plane pays its own latency
		// rounds.
		chunk := words
		if i < top {
			chunk = words * float64(lv.MaxRanks) / float64(s.Ranks)
		}
		c := AllGather(lv.Fanout, chunk/float64(lv.Planes), onLink(t.Levels[i].Link))
		total = total.Add(atLevel(serializePlanes(c, lv.Planes), i))
	}
	return total
}

// AllReduceTopo prices the all-reduce of words words over a group with
// level span s: reduce-scatter + all-gather pairs at every inner active
// level (the live shard shrinking by the level's fanout, sized by the
// thinnest sub-unit, whose ranks hold the largest shards) and a flat
// all-reduce of the residual shard at the outermost active level.
func AllReduceTopo(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	if s.Ranks <= 1 {
		return Cost{}
	}
	if t.Uniform() {
		return AllReduce(s.Ranks, words, t.Machine())
	}
	top := topActive(s)
	if top < 0 {
		return Cost{}
	}
	var total Cost
	shard := words
	for i := 0; i < top; i++ {
		lv := s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		link := onLink(t.Levels[i].Link)
		phase := ReduceScatter(lv.Fanout, shard, link).
			Add(AllGather(lv.Fanout, shard, link))
		total = total.Add(atLevel(serializePlanes(phase, lv.Planes), i))
		shard /= float64(lv.Fanout)
	}
	// The busiest sub-unit's uplink governs the top level: its Planes
	// rank planes each all-reduce their shard slice across the top
	// groups, serialized on the single link — the bandwidth telescopes
	// to the full reduced vector per ring pass (every sub-unit pushes
	// all of its shard once, however many ranks it hosts) while the
	// latency scales with the plane count.
	lv := s.Levels[top]
	c := AllReduce(lv.Fanout, shard, onLink(t.Levels[top].Link))
	return total.Add(atLevel(serializePlanes(c, lv.Planes), top))
}

// ReduceScatterTopo prices the reduce-scatter half of the hierarchical
// all-reduce on its own: the descending phases only.
func ReduceScatterTopo(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	if s.Ranks <= 1 {
		return Cost{}
	}
	if t.Uniform() {
		return ReduceScatter(s.Ranks, words, t.Machine())
	}
	top := topActive(s)
	var total Cost
	shard := words
	for i := 0; i <= top; i++ {
		lv := s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		c := ReduceScatter(lv.Fanout, shard, onLink(t.Levels[i].Link))
		total = total.Add(atLevel(serializePlanes(c, lv.Planes), i))
		shard /= float64(lv.Fanout)
	}
	return total
}

// BroadcastTopo prices the binomial broadcast over a group with level
// span s: trees fan out from the outermost active level down — once
// across the top sub-units, then within each — carrying the full words
// at every level (no plane serialization: one plane broadcasts).
func BroadcastTopo(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	if s.Ranks <= 1 {
		return Cost{}
	}
	if t.Uniform() {
		return Broadcast(s.Ranks, words, t.Machine())
	}
	var total Cost
	for i := topActive(s); i >= 0; i-- {
		lv := s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		total = total.Add(atLevel(Broadcast(lv.Fanout, words, onLink(t.Levels[i].Link)), i))
	}
	return total
}

// PointToPointTopo prices one pairwise message of words words: α + β·n
// on the link of the innermost level whose groups contain both
// endpoints (grid.ColNeighborsLevelAt).
func PointToPointTopo(level int, words float64, t machine.Topology) Cost {
	if t.Uniform() {
		return PointToPoint(words, t.Machine())
	}
	return atLevel(PointToPoint(words, onLink(t.Levels[level].Link)), level)
}

// MaxCost returns the most expensive of pricing one collective over each
// distinct group span — the span that governs a bulk-synchronous step
// whose groups straddle sub-unit boundaries unevenly. Ties keep the
// first span (the dedupe order of grid.*GroupSpans is deterministic).
func MaxCost(spans []grid.LevelSpan, price func(grid.LevelSpan) Cost) Cost {
	var worst Cost
	for i, s := range spans {
		c := price(s)
		if i == 0 || c.Total() > worst.Total() {
			worst = c
		}
	}
	return worst
}
