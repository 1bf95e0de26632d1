package collective

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// The reference recursion: each active level's phase is a flat closed
// form on that level's link, serialized over the planes with Scale,
// attributed to the level and summed with Add. The in-place forms must
// reproduce it bit for bit.

func onLink(l machine.Link) machine.Machine {
	return machine.Machine{Alpha: l.Alpha, Beta: l.Beta}
}

func atLevel(c Cost, i int) Cost {
	c.Levels[i] = c.Total()
	return c
}

func serializePlanes(c Cost, planes int) Cost { return c.Scale(float64(planes)) }

func allGatherTopoRef(s grid.LevelSpan, words float64, t machine.Topology) Cost {
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
		chunk := words
		if i < top {
			chunk = words * float64(lv.MaxRanks) / float64(s.Ranks)
		}
		c := AllGather(lv.Fanout, chunk/float64(lv.Planes), onLink(t.Levels[i].Link))
		total = total.Add(atLevel(serializePlanes(c, lv.Planes), i))
	}
	return total
}

func allReduceTopoRef(s grid.LevelSpan, words float64, t machine.Topology) Cost {
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
	lv := s.Levels[top]
	c := AllReduce(lv.Fanout, shard, onLink(t.Levels[top].Link))
	return total.Add(atLevel(serializePlanes(c, lv.Planes), top))
}

func reduceScatterTopoRef(s grid.LevelSpan, words float64, t machine.Topology) Cost {
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

func broadcastTopoRef(s grid.LevelSpan, words float64, t machine.Topology) Cost {
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

func pointToPointTopoRef(level int, words float64, t machine.Topology) Cost {
	if t.Uniform() {
		return PointToPoint(words, t.Machine())
	}
	return atLevel(PointToPoint(words, onLink(t.Levels[level].Link)), level)
}

// sameBits reports whether two costs agree bit for bit on Latency,
// Bandwidth and every Levels entry (== would equate 0 and −0).
func sameBits(a, b Cost) bool {
	if math.Float64bits(a.Latency) != math.Float64bits(b.Latency) ||
		math.Float64bits(a.Bandwidth) != math.Float64bits(b.Bandwidth) {
		return false
	}
	for i := range a.Levels {
		if math.Float64bits(a.Levels[i]) != math.Float64bits(b.Levels[i]) {
			return false
		}
	}
	return true
}

// randomSpan returns a random LevelSpan over depth levels: fanouts from
// 1 (an inactive level) to 9, planes from 1 to 5, and a rank count at
// least the product of the fanouts. The in-place and reference forms
// read the same fields, so the span need not come from a real grid.
func randomSpan(rng *rand.Rand, depth int) grid.LevelSpan {
	s := grid.LevelSpan{Ranks: 1, Levels: make([]grid.LevelStat, depth)}
	for i := range s.Levels {
		f := 1 + rng.Intn(9)
		if rng.Intn(4) == 0 {
			f = 1
		}
		s.Ranks *= f
		s.Levels[i] = grid.LevelStat{Groups: 1 + rng.Intn(8), Fanout: f, Planes: 1 + rng.Intn(5)}
	}
	s.Ranks *= 1 + rng.Intn(3)
	for i := range s.Levels {
		s.Levels[i].MaxRanks = 1 + rng.Intn(s.Ranks)
	}
	return s
}

// randomTopology returns a depth-level topology with random links (α
// down to 0, β spanning six decades); a drawn uniform one is kept, so
// the flat branch is exercised too.
func randomTopology(rng *rand.Rand, depth int) machine.Topology {
	t := machine.Topology{Name: "rand", Levels: make([]machine.Level, depth), PeakFlops: 1e12}
	for i := range t.Levels {
		a := rng.Float64() * 1e-5
		if rng.Intn(5) == 0 {
			a = 0
		}
		t.Levels[i] = machine.Level{Name: "l", Link: machine.Link{Alpha: a, Beta: math.Pow(10, -12+6*rng.Float64())}}
	}
	if depth > 1 && rng.Intn(10) == 0 {
		for i := range t.Levels {
			t.Levels[i].Link = t.Levels[0].Link
		}
	}
	return t
}

type oracleCase struct {
	name      string
	got, want Cost
}

// TestInPlaceMatchesOracle: the in-place hierarchical collectives equal
// the struct-returning reference recursion bit for bit on random spans
// over 1–6 levels (inactive fanout-1 levels, many planes), random links
// and words that are 0, subnormal, 1e12 or random.
func TestInPlaceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	wordsFor := []func() float64{
		func() float64 { return 0 },
		func() float64 { return 5e-324 },
		func() float64 { return 1e-300 },
		func() float64 { return 1e12 },
		func() float64 { return rng.Float64() * 1e8 },
	}
	for trial := 0; trial < 20000; trial++ {
		depth := 1 + rng.Intn(machine.MaxLevels)
		topo := randomTopology(rng, depth)
		s := randomSpan(rng, depth)
		words := wordsFor[rng.Intn(len(wordsFor))]()
		lvl := rng.Intn(depth)
		checks := []oracleCase{
			{"AllGatherTopo", AllGatherTopo(s, words, topo), allGatherTopoRef(s, words, topo)},
			{"AllReduceTopo", AllReduceTopo(s, words, topo), allReduceTopoRef(s, words, topo)},
			{"ReduceScatterTopo", ReduceScatterTopo(s, words, topo), reduceScatterTopoRef(s, words, topo)},
			{"BroadcastTopo", BroadcastTopo(s, words, topo), broadcastTopoRef(s, words, topo)},
			{"PointToPointTopo", PointToPointTopo(lvl, words, topo), pointToPointTopoRef(lvl, words, topo)},
		}
		if !topo.Uniform() {
			checks = append(checks,
				oracleCase{"AllGatherLeveled", AllGatherLeveled(s, words, topo), allGatherTopoRef(s, words, topo)},
				oracleCase{"AllReduceLeveled", AllReduceLeveled(s, words, topo), allReduceTopoRef(s, words, topo)})
		}
		for _, c := range checks {
			if !sameBits(c.got, c.want) {
				t.Fatalf("trial %d %s(%v, words=%g): got %+v, want %+v", trial, c.name, s, words, c.got, c.want)
			}
		}
	}
}
