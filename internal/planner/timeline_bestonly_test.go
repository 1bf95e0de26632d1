package planner

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// eagerFeasible and eagerStructural are verbatim copies of the structural
// check every leaf once formatted eagerly (a ConvLayers scan per leaf,
// a reason string per infeasible leaf). The search now decides the
// verdict from numbers and formats only the labels its slot winners
// report; these pin that text byte for byte.
func eagerFeasible(net *nn.Network, B int, g grid.Grid, mode Mode) (bool, string) {
	if g.Pc > B {
		return false, fmt.Sprintf("Pc=%d exceeds batch size %d", g.Pc, B)
	}
	if mode == ConvBatch && g.P() > B {
		return false, fmt.Sprintf("conv-batch needs P ≤ B, got P=%d > B=%d", g.P(), B)
	}
	if mode == ConvDomain && g.Pr > 1 {
		minH := math.MaxInt
		for _, li := range net.ConvLayers() {
			if h := net.Layers[li].In.H; h < minH {
				minH = h
			}
		}
		if g.Pr > minH {
			return false, fmt.Sprintf("Pr=%d exceeds smallest conv input height %d", g.Pr, minH)
		}
	}
	return true, ""
}

func eagerStructural(net *nn.Network, o Options, lf *leaf) string {
	g, B, M := lf.g, lf.B, lf.micro
	if ok, reason := eagerFeasible(net, B, g, o.Mode); !ok {
		return reason
	}
	if o.MaxPc > 0 && g.Pc > o.MaxPc {
		return fmt.Sprintf("Pc=%d exceeds the batch-parallelism cap %d", g.Pc, o.MaxPc)
	}
	if M < 1 || B%M != 0 {
		return fmt.Sprintf("micro-batch count %d does not divide B=%d", M, B)
	}
	if B/M < g.Pc {
		return fmt.Sprintf("micro-batch size %d is thinner than Pc=%d", B/M, g.Pc)
	}
	return ""
}

// timelineLeafRef evaluates one timeline leaf in full, as every reported
// slot winner once was: the eager structural label, one Env.PriceStages
// without a span memo or scratch, the memory check, and the schedule with
// spans (timeline.SimulatePipeline), counting the outcome into st. The
// plan carries its own Breakdown, Timeline spans and per-stage table.
func timelineLeafRef(net *nn.Network, lf *leaf, assign costmodel.Assignment, o Options, st *SearchStats) Plan {
	g, B, M, S := lf.g, lf.B, lf.micro, lf.S
	p := Plan{Grid: g, Batch: B, Placement: lf.pl, Mode: o.Mode, MicroBatch: M, Schedule: o.Schedule, Stages: S,
		Partition: lf.part.Cuts()}
	if p.Reason = eagerStructural(net, o, lf); p.Reason != "" {
		st.InfeasiblePruned++
		return p
	}
	env := costmodel.Env{Topo: o.topology(), Placement: lf.pl}
	grids := make([]grid.Grid, S)
	for k := range grids {
		grids[k] = g
	}
	sp, err := env.PriceStages(net, B, lf.part, grids, assign, o.Compute, timeline.Schedule{Shape: o.Schedule, MicroBatches: M})
	p.Assignment, p.MemoryWords = sp.Assignment, sp.MemoryWords
	if o.MemoryLimitWords > 0 && p.MemoryWords > o.MemoryLimitWords {
		stash := ""
		if S > 1 {
			stash = "stage stash: "
		} else if M > 1 {
			stash = "activation stash: "
		}
		p.Reason = fmt.Sprintf("%sper-process memory %.3g words exceeds limit %.3g", stash, p.MemoryWords, o.MemoryLimitWords)
		st.MemoryPruned++
		return p
	}
	st.Priced++
	st.TimelineSimulated++
	var sc costmodel.StagePipelineCost
	if err == nil {
		sc, err = sp.Simulate(o.TimelinePolicy, true)
	}
	if err != nil {
		kind := "timeline"
		if S > 1 {
			kind = "stage"
		} else if M > 1 {
			kind = "pipeline"
		}
		p.Reason = fmt.Sprintf("%s simulation failed: %v", kind, err)
		return p
	}
	p.Breakdown, p.Timeline = sc.Breakdown, sc.Result
	p.BubbleFraction = sc.Result.BubbleFraction
	if S > 1 {
		p.PerStage = sc.Stages
	}
	p.IterSeconds = sc.IterSeconds()
	p.CommSeconds = sc.Result.CommSeconds
	p.CompSeconds = sc.Result.ComputeSeconds + sc.Overhead
	if M == 1 && S == 1 {
		p.CommSeconds = sc.Breakdown.TotalSeconds()
		p.CompSeconds = sc.Overhead
		for _, l := range sp.Layers {
			p.CompSeconds += l.FwdComp + l.BwdComp
		}
	}
	p.Feasible = true
	if o.AddRedistribution {
		r := float64(M) * env.RedistributionSeconds(net, B/M, g, p.Assignment, lf.part)
		p.CommSeconds += r
		p.IterSeconds += r
	}
	p.ExposedCommSeconds = math.Max(0, p.IterSeconds-p.CompSeconds)
	if o.DatasetN > 0 {
		p.EpochSeconds = costmodel.EpochSeconds(p.IterSeconds, o.DatasetN, B)
	}
	if o.Objective == TimeToAccuracy {
		p.StepsToTarget = o.Curve.Steps(B)
		p.TimeToAccuracySeconds = p.StepsToTarget * p.IterSeconds
	}
	return p
}

// timelineRef is the reference Result of a timeline search as it was
// before leaves were scored into scratch: the engine's enumeration,
// bound order and chunk schedule, but every leaf not pruned by its bound
// evaluated in full by timelineLeafRef, every pruned placeholder
// labeled eagerly, each slot folded by the total order, and the
// telemetry counted leaf by leaf. Every All entry therefore carries its
// spans and breakdown, where the search keeps them on the best alone.
// It returns the best slot's plan index in the sorted All (-1 when none
// is feasible).
func timelineRef(net *nn.Network, B, P int, o Options) (Result, int) {
	var res Result
	st := &res.Stats
	s := newSearch(net, B, P, o, false)
	s.enumerate(st)
	n := len(s.leaves)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var lbs []float64
	if !o.DisableBounds && n > boundChunk {
		lbs = s.lowerBounds() // 0 when structurally infeasible
		sort.SliceStable(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
	}
	winners := append([]Plan(nil), s.winners...)
	win := make([]int, len(winners))
	for i := range win {
		win[i] = -1
	}
	incumbent := math.Inf(1)
	for lo := 0; lo < n; lo += boundChunk {
		hi := min(lo+boundChunk, n)
		plans := make([]Plan, 0, hi-lo)
		for _, i := range order[lo:hi] {
			lf := &s.leaves[i]
			st.Candidates++
			if lf.S > 1 {
				st.StageCandidates++
			}
			if lbs != nil && !s.slots[lf.slot].pure && lbs[i]*boundSlack > incumbent {
				st.Bounded++
				kind := "compute"
				if o.Objective == TimeToAccuracy {
					kind = "time-to-accuracy"
				}
				plans = append(plans, Plan{Grid: lf.g, Batch: lf.B, Placement: lf.pl, Mode: o.Mode,
					MicroBatch: lf.micro, Schedule: o.Schedule, Stages: lf.S, Partition: lf.part.Cuts(),
					Reason: fmt.Sprintf("pruned: %s lower bound %.4gs exceeds incumbent best %.4gs",
						kind, lbs[i], incumbent)})
				continue
			}
			plans = append(plans, timelineLeafRef(net, lf, s.assign, o, st))
		}
		for k, i := range order[lo:hi] {
			p := plans[k]
			if p.Feasible {
				incumbent = math.Min(incumbent, o.objectiveCost(&p))
			}
			si := s.leaves[i].slot
			if w := win[si]; w < 0 || precedes(&p, i, &winners[si], w) {
				winners[si], win[si] = p, i
			}
		}
	}
	bi, cost := -1, math.Inf(1)
	for i := range winners {
		p := &winners[i]
		if c := o.objectiveCost(p); p.Feasible && c < cost {
			bi, cost = i, c
			im := Improvement{Grid: p.Grid.String(), Placement: p.Placement, MicroBatch: p.MicroBatch,
				Stages: p.Stages, Partition: p.Partition, IterSeconds: p.IterSeconds}
			if o.Objective == TimeToAccuracy {
				im.Batch, im.TTASeconds = p.Batch, p.TimeToAccuracySeconds
			}
			st.Improvements = append(st.Improvements, im)
		}
		if s.slots[i].pure {
			pb := *p
			res.PureBatch = &pb
		}
	}
	if bi < 0 {
		res.All = winners
		return res, -1
	}
	res.Best = winners[bi]
	// Tag the best before the sort so its index survives it.
	type tagged struct {
		p    Plan
		best bool
	}
	all := make([]tagged, len(winners))
	for i, p := range winners {
		all[i] = tagged{p, i == bi}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i].p, &all[j].p
		if a.Batch != b.Batch {
			return a.Batch < b.Batch
		}
		if a.Stages != b.Stages {
			return a.Stages < b.Stages
		}
		return a.Grid.Pr < b.Grid.Pr
	})
	for i, t := range all {
		res.All = append(res.All, t.p)
		if t.best {
			bi = i
		}
	}
	return res, bi
}

// scoredOnly is a timeline plan as a search reports every entry but its
// best: the schedule's aggregates without spans or per-layer and
// per-lane statistics, and no breakdown.
func scoredOnly(p Plan) Plan {
	if p.Timeline != nil {
		tl := *p.Timeline
		tl.Spans, tl.PerLayer, tl.PerResource = nil, nil, nil
		p.Timeline = &tl
	}
	p.Breakdown = nil
	return p
}

// parityCounts tallies what a parity sample exercised: slot winners
// pruned by a bound, structurally infeasible and memory-pruned, and
// feasible entries reported without spans.
type parityCounts struct{ pruned, structural, memory, spansOff int }

// checkTimelineParity compares Optimize at workers 1/2/4 against
// timelineRef (see TestTimelineBestOnlyParity) and tallies the sample
// into c.
func checkTimelineParity(t *testing.T, name string, net *nn.Network, B, P int, o Options, c *parityCounts) {
	t.Helper()
	ref, bi := timelineRef(net, B, P, o)
	if bi < 0 {
		t.Fatalf("%s: the reference has no feasible plan", name)
	}
	want := ref
	want.All = make([]Plan, len(ref.All))
	for i, p := range ref.All {
		want.All[i] = p
		if i != bi {
			want.All[i] = scoredOnly(p)
			if p.Timeline != nil {
				c.spansOff++
			}
		}
		switch {
		case p.Feasible:
		case strings.HasPrefix(p.Reason, "pruned:"):
			c.pruned++
		case strings.Contains(p.Reason, "exceeds limit"):
			c.memory++
		default:
			c.structural++
		}
	}
	if ref.PureBatch != nil && !reflect.DeepEqual(*ref.PureBatch, ref.Best) {
		pb := scoredOnly(*ref.PureBatch)
		want.PureBatch = &pb
	}
	for _, w := range []int{1, 2, 4} {
		o.Workers = w
		got, err := Optimize(net, B, P, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Stats = got.Stats.ZeroTimes()
		where := fmt.Sprintf("%s workers=%d", name, w)
		if len(got.Best.Timeline.Spans) == 0 || got.Best.Breakdown == nil {
			t.Fatalf("%s: the best carries no spans or breakdown", where)
		}
		if !reflect.DeepEqual(got.Best, got.All[bi]) {
			t.Fatalf("%s: Best differs from its All entry", where)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got.All {
				if !reflect.DeepEqual(got.All[i], want.All[i]) {
					t.Fatalf("%s: All[%d] differs\n got  %+v\n want %+v", where, i, got.All[i], want.All[i])
				}
			}
			t.Fatalf("%s: Result differs from the reference\n got  %+v\n want %+v", where, got.Stats, want.Stats)
		}
	}
}

// TestTimelineBestOnlyParity: timeline leaves are scored into per-worker
// scratch, labeled only when they win their slot, and only the search's
// best is simulated once more with spans — and that changes nothing but
// the spans, per-layer and per-lane statistics and breakdowns of the
// entries nobody reports. Against timelineRef, which evaluates every leaf
// in full and labels every infeasible leaf eagerly, the whole Result —
// Best, every All entry, PureBatch, the counts and the trajectory, every
// pruned and infeasible Reason byte for byte — is equal once the
// reference's non-best entries are reduced to their scores; Best equals
// its All entry. Run over workers 1/2/4, GPipe and 1F1B, S ∈ {1, 2},
// M ∈ {1, 2, 4}, Auto and ConvDomain, flat and three-level topologies,
// without and with a memory limit and a batch-parallelism cap, at bounds
// on and off; the sample must hold all-pruned, all-structurally-
// infeasible and all-memory-pruned slots. A last search prunes a slot's
// winner in a chunk whose earlier leaves already lowered the incumbent,
// so its label must quote the chunk's frozen incumbent, not the running
// one.
func TestTimelineBestOnlyParity(t *testing.T) {
	net := nn.AlexNet()
	var c parityCounts
	configs := 0
	for _, topo := range []machine.Topology{{}, rackTaper()} {
		for _, mode := range []Mode{Auto, ConvDomain} {
			for _, shape := range []timeline.Shape{timeline.GPipe, timeline.OneFOneB} {
				for _, limits := range []bool{false, true} {
					const B, P = 512, 256
					o := opts(mode)
					o.Topology = topo
					o.UseTimeline, o.TimelinePolicy = true, timeline.PolicyBackprop
					o.Schedule = shape
					o.StageCounts, o.MicroBatches = []int{1, 2}, []int{1, 2, 4}
					o.MaxPartitions = 4
					if limits {
						o.DisableBounds = true
						free, _ := timelineRef(net, B, P, o)
						var words []float64
						for _, p := range free.All {
							if p.Feasible {
								words = append(words, p.MemoryWords)
							}
						}
						sort.Float64s(words)
						o.MemoryLimitWords = words[len(words)/2]
						o.MaxPc = 128
					}
					for _, disable := range []bool{true, false} {
						o.DisableBounds = disable
						configs++
						checkTimelineParity(t, fmt.Sprintf("%s %v %v limits=%v bounds=%v",
							o.topology().Name, mode, shape, limits, !disable), net, B, P, o, &c)
					}
				}
			}
		}
	}
	o := opts(Uniform)
	o.Topology = rackTaper()
	o.UseTimeline, o.TimelinePolicy = true, timeline.PolicyBackprop
	o.StageCounts, o.MicroBatches = []int{1, 2}, []int{1, 2, 4}
	o.MaxPartitions = 4
	checkTimelineParity(t, "rack-taper uniform B=1024 P=128", net, 1024, 128, o, &c)
	t.Logf("%d configurations: %+v", configs+1, c)
	if c.pruned == 0 || c.structural == 0 || c.memory == 0 || c.spansOff == 0 {
		t.Fatalf("weak sample: %+v", c)
	}
}

// TestOneLeafTimelineSearchIsFull: a search of one timeline leaf
// evaluates it in full the first time — spans, breakdown and label —
// and equals the reference leaf, feasible or not.
func TestOneLeafTimelineSearchIsFull(t *testing.T) {
	net := nn.AlexNet()
	o := opts(Auto)
	o.Topology = rackTaper()
	o.UseTimeline, o.TimelinePolicy = true, timeline.PolicyBackprop
	o.MicroBatches = []int{4}
	s := newSearch(net, 512, 256, o, false)
	for _, g := range []grid.Grid{{Pr: 8, Pc: 32}, {Pr: 1, Pc: 256}} {
		lf := leaf{B: 512, S: 1, g: g, pl: grid.ColMajor, part: stage.Balanced(len(net.WeightedLayers()), 1), micro: 4}
		var st SearchStats
		want := timelineLeafRef(net, &lf, s.assign, o, &st)
		if got := EvaluateAt(net, 512, g, grid.ColMajor, o); !reflect.DeepEqual(got, want) {
			t.Fatalf("grid %v: one-leaf search differs from its reference leaf\n got  %+v\n want %+v", g, got, want)
		}
		if g.Pc == 256 && want.Feasible {
			t.Fatalf("grid %v at M=4 must be structurally infeasible", g)
		}
	}
}

// TestReportedPlansOwnTheirCuts: leaves share the search's partition
// storage, but every Result.All entry owns its Partition, so writing one
// plan's cuts leaves every other plan's intact.
func TestReportedPlansOwnTheirCuts(t *testing.T) {
	o := opts(Auto)
	o.UseTimeline, o.TimelinePolicy = true, timeline.PolicyBackprop
	o.StageCounts = []int{2, 4}
	o.MaxPartitions = 3
	o.MicroBatches = []int{1, 2}
	res, err := Optimize(nn.AlexNet(), 256, 32, o)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[*int]int{}
	for i, p := range res.All {
		if len(p.Partition) == 0 {
			continue
		}
		if j, ok := owners[&p.Partition[0]]; ok {
			t.Fatalf("entries %d and %d share their Partition storage", j, i)
		}
		owners[&p.Partition[0]] = i
	}
	if len(owners) < 2 {
		t.Fatalf("weak sample: %d staged entries", len(owners))
	}
}

var sinkAssign costmodel.Assignment

// TestTimelineLeafAllocations pins what scoring a timeline leaf on a
// warm worker allocates: what timeline.Score returns on the leaf's
// input, plus, under Auto, the resolved assignment map and, always, the
// PerStage table — the breakdown, the layer times, the simulator input
// with its level splits, the stage grids and the partition cuts are the
// worker's scratch or the search's. S ∈ {1, 2} × M ∈ {1, 4}, Uniform and
// Auto, flat and three-level.
func TestTimelineLeafAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	net := nn.AlexNet()
	const B, P = 512, 256
	for _, topo := range []machine.Topology{{}, rackTaper()} {
		for _, mode := range []Mode{Uniform, Auto} {
			o := opts(mode)
			o.Topology = topo
			o.UseTimeline, o.TimelinePolicy = true, timeline.PolicyBackprop
			o.Schedule = timeline.OneFOneB
			o.StageCounts, o.MicroBatches = []int{1, 2}, []int{1, 4}
			o.MaxPartitions = 2
			s := newSearch(net, B, P, o, true)
			var st SearchStats
			s.enumerate(&st)
			var w worker
			seen := map[[2]int]bool{}
			for i := range s.leaves {
				lf := &s.leaves[i]
				if k := [2]int{lf.S, lf.micro}; seen[k] || !s.evaluate(lf, &w, false).Feasible {
					continue
				} else {
					seen[k] = true
				}
				env := costmodel.Env{Topo: s.topo, Placement: lf.pl, Spans: s.spans}
				grids := make([]grid.Grid, lf.S)
				for k := range grids {
					grids[k] = lf.g
				}
				var sc costmodel.StageScratch
				sp, err := env.PriceStagesInto(&sc, net, B, lf.part, grids, s.assign, o.Compute,
					timeline.Schedule{Shape: o.Schedule, MicroBatches: lf.micro})
				if err != nil {
					t.Fatal(err)
				}
				score := testing.AllocsPerRun(20, func() { _, _ = timeline.Score(sp.Layers, o.TimelinePolicy, sp.Schedule) })
				var assign float64
				if mode == Auto {
					assign = testing.AllocsPerRun(20, func() { sinkAssign = sp.Breakdown.Assignment() })
				}
				want := score + assign + 1 // the PerStage table
				if got := testing.AllocsPerRun(20, func() { sinkPlan = s.evaluate(lf, &w, false) }); got != want {
					t.Errorf("%s %v S=%d M=%d %v: a warm leaf allocates %v times, want %v (Score %v + map %v + table 1)",
						o.topology().Name, mode, lf.S, lf.micro, lf.g, got, want, score, assign)
				}
			}
			if len(seen) != 4 {
				t.Fatalf("%s %v: covered %d of the 4 (S, M) pairs", o.topology().Name, mode, len(seen))
			}
		}
	}
}
