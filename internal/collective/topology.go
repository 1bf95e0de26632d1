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
// (its terms are multiplied by the plane count) — an all-gather's plane
// slices telescope back to the full-words bandwidth term, while the
// all-reduce planes each move a full per-rank shard and the uplink pays
// all of them. Groups that straddle sub-unit boundaries are therefore
// genuinely more expensive than one-rank-per-unit groups of the same
// size, which is what a per-node NIC (or per-rack uplink) does.
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
//
// The recursion is priced in place. Each active level computes its
// phase's latency and bandwidth as two scalars — the flat closed form's
// expression times the plane count — and adds them, with their sum as
// Levels[i], straight into one accumulating Cost (Cost.addLevel). No
// per-level Cost temporary is built, added or scaled, yet every float
// is produced by the same operations in the same order as composing the
// flat closed forms with Cost.Add and Cost.Scale, so prices are bit for
// bit those of that composition (the seeded oracle property test in
// this package). AllGatherLeveled and AllReduceLeveled skip the
// Topology.Uniform scan for callers that have already made that check
// once, as the cost model's pricer does per grid.
package collective

import (
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// addLevel adds one active level's phase to c in place — lat latency
// and bw bandwidth seconds, already serialized over the level's planes —
// and attributes their sum to link level i. It performs the float
// operations of c.Add(x) where x carries lat, bw and Levels[i] = lat+bw
// (the other levels of x are zero, and adding zero leaves them as they
// are), so the result is bit-identical to that 64-byte temporary's sum.
func (c *Cost) addLevel(i int, lat, bw float64) {
	c.Latency += lat
	c.Bandwidth += bw
	c.Levels[i] += lat + bw
}

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
// on the sub-unit uplink. A uniform t takes the flat closed form.
func AllGatherTopo(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	if s.Ranks <= 1 {
		return Cost{}
	}
	if t.Uniform() {
		return AllGather(s.Ranks, words, t.Machine())
	}
	return AllGatherLeveled(s, words, t)
}

// AllGatherLeveled is AllGatherTopo without the uniform-topology check:
// it always prices s level by level on t's links. It is for callers that
// already know t is not uniform (the cost model's pricer decides that
// once per grid); on a uniform t it returns the per-level decomposition,
// not the flat closed form.
func AllGatherLeveled(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	var total Cost
	if s.Ranks <= 1 {
		return total
	}
	top := topActive(s)
	for i := 0; i <= top; i++ {
		lv := &s.Levels[i]
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
		// AllGather(lv.Fanout, chunk/k, link), times k planes.
		l, k := t.Levels[i].Link, float64(lv.Planes)
		total.addLevel(i, l.Alpha*float64(CeilLog2(lv.Fanout))*k,
			l.Beta*(chunk/k)*float64(lv.Fanout-1)/float64(lv.Fanout)*k)
	}
	return total
}

// AllReduceTopo prices the all-reduce of words words over a group with
// level span s: reduce-scatter + all-gather pairs at every inner active
// level (the live shard shrinking by the level's fanout, sized by the
// thinnest sub-unit, whose ranks hold the largest shards) and a flat
// all-reduce of the residual shard at the outermost active level. A
// uniform t takes the flat closed form.
func AllReduceTopo(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	if s.Ranks <= 1 {
		return Cost{}
	}
	if t.Uniform() {
		return AllReduce(s.Ranks, words, t.Machine())
	}
	return AllReduceLeveled(s, words, t)
}

// AllReduceLeveled is AllReduceTopo without the uniform-topology check,
// for callers that already know t is not uniform (see AllGatherLeveled).
func AllReduceLeveled(s grid.LevelSpan, words float64, t machine.Topology) Cost {
	var total Cost
	if s.Ranks <= 1 {
		return total
	}
	top := topActive(s)
	if top < 0 {
		return total
	}
	shard := words
	for i := 0; i < top; i++ {
		lv := &s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		// ReduceScatter + AllGather of the shard (equal terms), times k
		// planes.
		l, k := t.Levels[i].Link, float64(lv.Planes)
		lat := l.Alpha * float64(CeilLog2(lv.Fanout))
		bw := l.Beta * shard * float64(lv.Fanout-1) / float64(lv.Fanout)
		total.addLevel(i, (lat+lat)*k, (bw+bw)*k)
		shard /= float64(lv.Fanout)
	}
	// The busiest sub-unit's uplink governs the top level: its Planes
	// rank planes each all-reduce their shard slice across the top
	// groups, serialized on the single link — the bandwidth telescopes
	// to the full reduced vector per ring pass (every sub-unit pushes
	// all of its shard once, however many ranks it hosts) while the
	// latency scales with the plane count. AllReduce(lv.Fanout, shard,
	// link), times k planes:
	lv := &s.Levels[top]
	l, k := t.Levels[top].Link, float64(lv.Planes)
	total.addLevel(top, 2*l.Alpha*float64(CeilLog2(lv.Fanout))*k,
		2*l.Beta*shard*float64(lv.Fanout-1)/float64(lv.Fanout)*k)
	return total
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
		lv := &s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		// ReduceScatter(lv.Fanout, shard, link), times k planes.
		l, k := t.Levels[i].Link, float64(lv.Planes)
		total.addLevel(i, l.Alpha*float64(CeilLog2(lv.Fanout))*k,
			l.Beta*shard*float64(lv.Fanout-1)/float64(lv.Fanout)*k)
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
		lv := &s.Levels[i]
		if lv.Fanout <= 1 {
			continue
		}
		// Broadcast(lv.Fanout, words, link).
		l, rounds := t.Levels[i].Link, float64(CeilLog2(lv.Fanout))
		total.addLevel(i, l.Alpha*rounds, l.Beta*words*rounds)
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
	l := t.Levels[level].Link
	c := Cost{Latency: l.Alpha, Bandwidth: l.Beta * words}
	c.Levels[level] = c.Total()
	return c
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
