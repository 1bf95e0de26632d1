package planner

import (
	"fmt"
	"math"
	"testing"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/convergence"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// The lower bound as the search once computed it, kept as the oracle of
// lowerBounds: a compute cache keyed by (grid, micro-batch size) and a
// ∆W floor map keyed by (grid, placement), both prefilled over every
// leaf, and S(B) memoized per batch size.

// timesKey identifies one memoized per-layer compute split.
type timesKey struct{ pr, pc, b int }

// computeCache memoizes the lower-bound aggregates of GridLayerTimes
// across the leaves that share (grid, batch).
type computeCache struct {
	cm  compute.Model
	net *nn.Network
	m   map[timesKey]*gridTimes
}

func newComputeCache(cm compute.Model, net *nn.Network) *computeCache {
	return &computeCache{cm: cm, net: net, m: make(map[timesKey]*gridTimes)}
}

func (c *computeCache) build(g grid.Grid, b int) *gridTimes {
	times, ov := c.cm.GridLayerTimes(c.net, b, g)
	gt := &gridTimes{overhead: ov,
		prefix: make([]float64, len(times)+1),
		fwdPre: make([]float64, len(times)+1),
		bwdPre: make([]float64, len(times)+1)}
	for i, t := range times {
		gt.prefix[i+1] = gt.prefix[i] + t.Fwd + t.Bwd
		gt.fwdPre[i+1] = gt.fwdPre[i] + t.Fwd
		gt.bwdPre[i+1] = gt.bwdPre[i] + t.Bwd
	}
	return gt
}

// fill populates the entry for (g, b).
func (c *computeCache) fill(g grid.Grid, b int) {
	k := timesKey{g.Pr, g.Pc, b}
	if _, ok := c.m[k]; !ok {
		c.m[k] = c.build(g, b)
	}
}

// peek returns the entry for (g, b), computing a fresh one on a miss.
func (c *computeCache) peek(g grid.Grid, b int) *gridTimes {
	if gt, ok := c.m[timesKey{g.Pr, g.Pc, b}]; ok {
		return gt
	}
	return c.build(g, b)
}

// floorKey identifies one memoized ∆W communication floor.
type floorKey struct {
	pr, pc int
	pl     grid.Placement
}

// boundRef holds the oracle's search-wide state over an enumerated
// search.
type boundRef struct {
	s      *search
	cc     *computeCache
	floors map[floorKey]float64
	steps  map[int]float64
}

func newBoundRef(s *search) *boundRef {
	r := &boundRef{s: s, cc: newComputeCache(s.opts.Compute, s.net), floors: make(map[floorKey]float64)}
	if s.opts.Objective == TimeToAccuracy {
		r.steps = make(map[int]float64, len(s.batches))
		for _, b := range s.batches {
			r.steps[b] = s.opts.Curve.Steps(b)
		}
	}
	r.prefillBounds()
	return r
}

func (r *boundRef) objectiveScale(B int) float64 {
	if r.steps == nil {
		return 1
	}
	return r.steps[B]
}

// prefillBounds memoizes what the lower bounds read, once per key over
// the enumerated leaves.
func (r *boundRef) prefillBounds() {
	s := r.s
	o := &s.opts
	needFloors := !o.UseTimeline && !o.Overlap && s.topo.Uniform()
	for i := range s.leaves {
		lf := &s.leaves[i]
		if lf.micro >= 1 && lf.B%lf.micro == 0 {
			r.cc.fill(lf.g, lf.B/lf.micro)
		}
		if lf.S != 1 || !needFloors {
			continue
		}
		k := floorKey{lf.g.Pr, lf.g.Pc, lf.pl}
		if _, ok := r.floors[k]; !ok {
			env := costmodel.Env{Topo: s.topo, Placement: lf.pl}
			r.floors[k] = env.FCGradReduceSeconds(s.net, lf.g)
		}
	}
}

// lowerBound returns the leaf's bound, or ok=false when the leaf fails a
// structural constraint.
func (r *boundRef) lowerBound(lf *leaf) (float64, bool) {
	s := r.s
	if s.misfit(lf) != fits {
		return 0, false
	}
	o := &s.opts
	g := lf.g
	gt := r.cc.peek(g, lf.B/lf.micro)
	fixed := o.Compute.FixedIter
	M := float64(lf.micro)
	chain := gt.prefix[len(gt.prefix)-1]
	for k := 0; k < lf.S; k++ {
		lo, hi := lf.part.Bounds(k)
		c := gt.fwdPre[lo] + M*(gt.prefix[hi]-gt.prefix[lo]) + gt.bwdPre[lo]
		if c > chain {
			chain = c
		}
	}
	lb := chain + fixed + M*(gt.overhead-fixed)
	if !o.UseTimeline && !o.Overlap {
		lb += r.floors[floorKey{g.Pr, g.Pc, lf.pl}]
	}
	return lb * r.objectiveScale(lf.B), true
}

// boundSweep lists the option sets of the bound tests: closed form,
// overlap and timeline scoring, each on a flat and a three-level
// topology, under the iteration objective and under time-to-accuracy
// with a batch sweep. stages and micros set the timeline's stage counts
// and micro-batch counts.
func boundSweep(t *testing.T, stages, micros []int) []Options {
	t.Helper()
	curve, err := convergence.Preset("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	var sweep []Options
	for _, topo := range []machine.Topology{{}, misalignedRacks()} {
		for _, scoring := range []string{"closed", "overlap", "timeline"} {
			for _, tta := range []bool{false, true} {
				o := opts(Auto)
				o.Topology = topo
				switch scoring {
				case "overlap":
					o.Overlap = true
				case "timeline":
					o.UseTimeline, o.TimelinePolicy = true, timeline.PolicyBackprop
					o.StageCounts, o.MicroBatches = stages, micros
					o.MaxPartitions = 3
				}
				if tta {
					o.Objective, o.Curve = TimeToAccuracy, curve
					o.BatchSizes = []int{256, 1024}
				}
				sweep = append(sweep, o)
			}
		}
	}
	return sweep
}

// optionsName names an option set of boundSweep.
func optionsName(o Options) string {
	scoring := "closed"
	if o.Overlap {
		scoring = "overlap"
	} else if o.UseTimeline {
		scoring = fmt.Sprintf("timeline/%v/%v S=%v M=%v", o.TimelinePolicy, o.Schedule, o.StageCounts, o.MicroBatches)
	}
	return fmt.Sprintf("%s %v %s %v", o.topology().Name, o.Mode, scoring, o.Objective)
}

// TestLowerBoundsParity: the one-pass lowerBounds equals, bit for bit on
// every leaf, the bound the search computed from its search-wide compute
// cache, ∆W floor map and steps memo — AlexNet, VGG16 and ResNet50 at
// B = 512 on 768 ranks, flat and on a three-level hierarchy whose nodes
// and racks do not align with the grids, in closed form, with overlap
// and on the timeline (S ∈ {1, 2}, M ∈ {1, 2, 3, 4}; 3 does not divide
// B), under both objectives. The ∆W floor applies to the flat closed
// form only; structurally infeasible leaves keep bound 0.
func TestLowerBoundsParity(t *testing.T) {
	const B, P = 512, 768
	searches, leaves, misfits, floored := 0, 0, 0, 0
	for _, net := range []*nn.Network{nn.AlexNet(), nn.VGG16(), nn.ResNet50Proxy()} {
		for _, o := range boundSweep(t, []int{1, 2}, []int{1, 2, 3, 4}) {
			name := net.Name + " " + optionsName(o)
			s := newSearch(net, B, P, o, true)
			var st SearchStats
			s.enumerate(&st)
			if len(s.leaves) <= boundChunk {
				t.Fatalf("%s: %d leaves, the search does not bound", name, len(s.leaves))
			}
			ref := newBoundRef(s)
			lbs := s.lowerBounds()
			if len(lbs) != len(s.leaves) {
				t.Fatalf("%s: %d bounds for %d leaves", name, len(lbs), len(s.leaves))
			}
			for i := range s.leaves {
				lf := &s.leaves[i]
				want, ok := ref.lowerBound(lf)
				if math.Float64bits(lbs[i]) != math.Float64bits(want) {
					t.Fatalf("%s leaf %d (B=%d S=%d %v %v M=%d): bound %v, want %v",
						name, i, lf.B, lf.S, lf.g, lf.pl, lf.micro, lbs[i], want)
				}
				if !ok {
					misfits++
				}
			}
			searches++
			leaves += len(s.leaves)
			floored += len(ref.floors)
		}
	}
	t.Logf("%d searches, %d leaves, %d structurally infeasible, %d ∆W floors", searches, leaves, misfits, floored)
	if misfits == 0 || floored == 0 {
		t.Fatalf("weak sample: %d misfits, %d floors", misfits, floored)
	}
}

// TestLowerBoundsAreSound checks the invariant branch-and-bound rests
// on: a feasible leaf's objective cost is at least its bound (relaxed by
// boundSlack), so a pruned leaf can never beat the incumbent that pruned
// it. Every leaf is evaluated in full against its lowerBounds entry —
// every mode, closed form, overlap and all three timeline policies under
// both pipeline schedules (S ∈ {1, 2}, M ∈ {1, 2, 4, 8}), flat and three
// levels, both objectives — for AlexNet and VGG16 at B = 512, P = 256.
func TestLowerBoundsAreSound(t *testing.T) {
	const B, P = 512, 256
	var sweep []Options
	for i, o := range boundSweep(t, []int{1, 2}, []int{1, 2, 4, 8}) {
		o.Mode = []Mode{Uniform, ConvBatch, ConvDomain, Auto}[i%4]
		if !o.UseTimeline {
			sweep = append(sweep, o)
			continue
		}
		for _, pol := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
			for _, shape := range []timeline.Shape{timeline.GPipe, timeline.OneFOneB} {
				o.TimelinePolicy, o.Schedule = pol, shape
				sweep = append(sweep, o)
			}
		}
	}
	feasible, worst := 0, 0.0
	for _, net := range []*nn.Network{nn.AlexNet(), nn.VGG16()} {
		for _, o := range sweep {
			name := net.Name + " " + optionsName(o)
			o.DisableBounds = true
			s := newSearch(net, B, P, o, true)
			var st SearchStats
			s.enumerate(&st)
			lbs := s.lowerBounds()
			var w worker
			for i := range s.leaves {
				lf := &s.leaves[i]
				p := s.evaluate(lf, &w, false)
				if !p.Feasible {
					continue
				}
				feasible++
				cost := o.objectiveCost(&p)
				if lbs[i]*boundSlack > cost {
					t.Fatalf("%s leaf (B=%d S=%d %v %v M=%d): bound %v exceeds cost %v",
						name, lf.B, lf.S, lf.g, lf.pl, lf.micro, lbs[i], cost)
				}
				worst = max(worst, lbs[i]/cost)
			}
		}
	}
	t.Logf("%d option sets, %d feasible leaves, largest bound/cost %.6f", 2*len(sweep), feasible, worst)
	if feasible < 10000 || worst < 0.99 {
		t.Fatalf("weak sample: %d feasible leaves, largest bound/cost %v", feasible, worst)
	}
}
