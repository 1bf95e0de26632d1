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
)

// closedFormRef is the reference closed-form plan of one leaf — batch B,
// grid g, placement pl, M = 1, S = 1 — priced afresh: the assignment
// chosen by referenceAssignment, one Env.FullIntegrated without a span
// memo or scratch, the footprint by costmodel.Memory, the totals by
// costmodel.IterationTotals and the Eq. 6 redistribution on the whole
// network's block. A priced plan carries its own Breakdown, and every
// plan that got as far as the footprint its Assignment.
func closedFormRef(net *nn.Network, B int, g grid.Grid, pl grid.Placement, o Options) Plan {
	p := Plan{Grid: g, Batch: B, Placement: pl, Mode: o.Mode, MicroBatch: 1, Schedule: o.Schedule, Stages: 1}
	s := newSearch(net, B, g.P(), o, false)
	part := stage.Balanced(len(net.WeightedLayers()), 1)
	if p.Reason = s.structural(&leaf{B: B, S: 1, g: g, pl: pl, part: part, micro: 1}); p.Reason != "" {
		return p
	}
	env := costmodel.Env{Topo: o.topology(), Placement: pl}
	p.Assignment = referenceAssignment(env, net, B, g, o.Mode)
	p.MemoryWords = costmodel.Memory(net, B, g, p.Assignment).TotalWords()
	if o.MemoryLimitWords > 0 && p.MemoryWords > o.MemoryLimitWords {
		p.Reason = fmt.Sprintf("per-process memory %.3g words exceeds limit %.3g", p.MemoryWords, o.MemoryLimitWords)
		return p
	}
	p.Breakdown = env.FullIntegrated(net, B, g, p.Assignment)
	p.CompSeconds = o.Compute.GridIterTime(net, B, g)
	p.CommSeconds, p.IterSeconds = costmodel.IterationTotals(p.Breakdown, p.CompSeconds, o.Overlap)
	p.Feasible = true
	if o.AddRedistribution {
		r := env.RedistributionSeconds(net, B, g, p.Assignment, part)
		p.CommSeconds += r
		p.IterSeconds += r
	}
	p.ExposedCommSeconds = math.Max(0, p.IterSeconds-p.CompSeconds)
	if o.DatasetN > 0 {
		p.EpochSeconds = costmodel.EpochSeconds(p.IterSeconds, o.DatasetN, B)
	}
	return p
}

// exhaustiveRef is the reference Result of an exhaustive single-stage
// closed-form search at one batch size, as if every leaf kept its
// breakdown: every leaf priced by closedFormRef, each grid's leaves
// folded in placement order (feasible first, then strictly lower
// iteration time), the best the first feasible slot winner of lowest
// iteration time, and the telemetry counted leaf by leaf. It returns the
// best slot's index.
func exhaustiveRef(net *nn.Network, B, P int, o Options) (Result, int) {
	var res Result
	st := &res.Stats
	st.StageCountsSearched, st.BatchSizesSearched = 1, 1
	bi, cost := -1, math.Inf(1)
	for _, g := range grid.Factorizations(P) {
		st.GridsEnumerated++
		pls := o.placements()
		if g.Pr == 1 || g.Pc == 1 {
			pls = pls[:1]
		}
		var win Plan
		for i, pl := range pls {
			p := closedFormRef(net, B, g, pl, o)
			st.Candidates++
			switch {
			case p.Feasible:
				st.Priced++
			case strings.HasPrefix(p.Reason, "per-process memory"):
				st.MemoryPruned++
			default:
				st.InfeasiblePruned++
			}
			if i == 0 || p.Feasible && (!win.Feasible || p.IterSeconds < win.IterSeconds) {
				win = p
			}
		}
		if win.Feasible && win.IterSeconds < cost {
			bi, cost = len(res.All), win.IterSeconds
			st.Improvements = append(st.Improvements, Improvement{Grid: g.String(), Placement: win.Placement,
				MicroBatch: 1, Stages: 1, IterSeconds: win.IterSeconds})
		}
		if g.IsPureBatch() {
			pb := win
			res.PureBatch = &pb
		}
		res.All = append(res.All, win)
	}
	if bi >= 0 {
		res.Best = res.All[bi]
	}
	return res, bi
}

// numbersOnly is a plan as a closed-form search reports every entry but
// its best: without a breakdown, and under Auto without the resolved
// assignment.
func numbersOnly(p Plan) Plan {
	p.Breakdown = nil
	if p.Mode == Auto {
		p.Assignment = nil
	}
	return p
}

// TestBestOnlyBreakdownParity: closed-form leaves are priced into
// per-worker scratch and only the reported best is re-priced with its
// own breakdown, and that changes nothing but the breakdowns (and Auto
// assignments) of the entries nobody reports. Against exhaustiveRef,
// which prices every leaf afresh, an exhaustive search's whole Result —
// Best, every All entry, PureBatch, the counts and the trajectory — is
// equal once the reference's non-best entries drop those two fields; a
// bounded search has the same Best and PureBatch, and each of its
// entries not pruned by a bound is its own leaf's reference plan.
// Best.Breakdown equals a fresh FullIntegrated of the mode's request,
// level names included. Evaluate returns its grid's reference winner
// and EvaluateAt its leaf's reference plan, breakdown included. Run over
// workers 1/2/4, all four modes, flat, two- and three-level topologies,
// overlap and Eq. 6 redistribution on and off, with and without a
// memory limit that prunes some leaves, at bounds on and off.
func TestBestOnlyBreakdownParity(t *testing.T) {
	net := nn.AlexNet()
	const B, P = 2048, 512
	topos := []machine.Topology{{}, machine.CoriKNLNodes(16), rackTaper()}
	conv := map[Mode]costmodel.Strategy{Uniform: costmodel.Model, ConvBatch: costmodel.BatchOnly,
		ConvDomain: costmodel.Domain, Auto: costmodel.Cheapest}
	var bounded, memPruned, configs int
	for _, topo := range topos {
		for _, mode := range []Mode{Uniform, ConvBatch, ConvDomain, Auto} {
			for _, flags := range []int{0, 1, 2, 3, 4, 7} { // bit 0 overlap, bit 1 redistribution, bit 2 memory limit
				o := opts(mode)
				o.Topology = topo
				o.Overlap, o.AddRedistribution = flags&1 != 0, flags&2 != 0
				if flags&4 != 0 {
					// The median feasible footprint prunes about half the
					// leaves and leaves a best.
					free, _ := exhaustiveRef(net, B, P, o)
					var words []float64
					for _, p := range free.All {
						if p.Feasible {
							words = append(words, p.MemoryWords)
						}
					}
					sort.Float64s(words)
					o.MemoryLimitWords = words[len(words)/2]
				}
				name := fmt.Sprintf("%s %v flags=%d", o.topology().Name, mode, flags)
				ref, bi := exhaustiveRef(net, B, P, o)
				if bi < 0 {
					t.Fatalf("%s: the reference has no feasible plan", name)
				}
				configs++
				memPruned += ref.Stats.MemoryPruned
				want := ref
				want.All = make([]Plan, len(ref.All))
				for i, p := range ref.All {
					want.All[i] = p
					if i != bi {
						want.All[i] = numbersOnly(p)
					}
				}
				if !ref.All[bi].Grid.IsPureBatch() {
					pb := numbersOnly(*ref.PureBatch)
					want.PureBatch = &pb
				}

				env := costmodel.Env{Topo: o.topology(), Placement: ref.Best.Placement}
				fresh := env.FullIntegrated(net, B, ref.Best.Grid, costmodel.ConvAssignment(net, conv[mode], costmodel.Model))
				if len(fresh.LevelNames) != len(topo.Levels) {
					t.Fatalf("%s: fresh breakdown has level names %v", name, fresh.LevelNames)
				}
				for _, disable := range []bool{true, false} {
					for _, w := range []int{1, 2, 4} {
						o.DisableBounds, o.Workers = disable, w
						got, err := Optimize(net, B, P, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got.Stats = got.Stats.ZeroTimes()
						where := fmt.Sprintf("%s bounds=%v workers=%d", name, !disable, w)
						if !reflect.DeepEqual(got.Best.Breakdown, fresh) {
							t.Fatalf("%s: Best.Breakdown differs from a fresh FullIntegrated", where)
						}
						if disable {
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: Result differs from the reference\n got  %+v\n want %+v", where, got, want)
							}
							continue
						}
						if !reflect.DeepEqual(got.Best, want.Best) || !reflect.DeepEqual(got.PureBatch, want.PureBatch) {
							t.Fatalf("%s: bounds changed Best or PureBatch", where)
						}
						if !got.Stats.Reconciles() {
							t.Fatalf("%s: counts do not reconcile: %+v", where, got.Stats)
						}
						bounded += got.Stats.Bounded
						for i, p := range got.All {
							if strings.HasPrefix(p.Reason, "pruned:") {
								continue
							}
							lf := closedFormRef(net, B, p.Grid, p.Placement, o)
							if i != bi {
								lf = numbersOnly(lf)
							}
							if !reflect.DeepEqual(p, lf) {
								t.Fatalf("%s: All[%d] (%v %v) differs from its leaf's reference", where, i, p.Grid, p.Placement)
							}
						}
					}
				}

				o.DisableBounds, o.Workers = false, 0
				for i, g := range grid.Factorizations(P) {
					// An infeasible Evaluate answer is its first leaf's
					// plan, reported by its Reason alone.
					got, wantEval := Evaluate(net, B, g, o), ref.All[i]
					if !got.Feasible {
						got, wantEval = numbersOnly(got), numbersOnly(wantEval)
					}
					if !reflect.DeepEqual(got, wantEval) {
						t.Fatalf("%s: Evaluate(%v) differs from the reference winner", name, g)
					}
				}
				g, pl := ref.Best.Grid, ref.Best.Placement
				if got := EvaluateAt(net, B, g, pl, o); !reflect.DeepEqual(got, closedFormRef(net, B, g, pl, o)) {
					t.Fatalf("%s: EvaluateAt(%v, %v) differs from the reference leaf", name, g, pl)
				}
			}
		}
	}
	if bounded == 0 || memPruned == 0 {
		t.Fatalf("weak sample over %d configurations: %d bounded, %d memory-pruned leaves", configs, bounded, memPruned)
	}
}

var sinkPlan Plan

// TestClosedFormLeafAllocatesNothing: on a warm worker, scoring a
// feasible closed-form leaf allocates nothing — the breakdown and the
// resolved Auto assignment are the worker's scratch, the pricer stays
// on the stack, and the topology was resolved once per search. ResNet50
// (50 weighted layers) under Uniform and Auto on a flat machine and on
// a three-level topology, with overlap and Eq. 6 redistribution off and
// on.
func TestClosedFormLeafAllocatesNothing(t *testing.T) {
	net := nn.ResNet50Proxy()
	const B, P = 1024, 128
	for _, topo := range []machine.Topology{{}, rackTaper()} {
		for _, mode := range []Mode{Uniform, Auto} {
			for _, extras := range []bool{false, true} {
				o := opts(mode)
				o.Topology = topo
				o.Overlap, o.AddRedistribution = extras, extras
				s := newSearch(net, B, P, o, true)
				var st SearchStats
				s.enumerate(&st)
				var w worker
				scored := 0
				for i := range s.leaves {
					lf := &s.leaves[i]
					if !s.evaluate(lf, &w, false).Feasible {
						continue
					}
					scored++
					if n := testing.AllocsPerRun(20, func() { sinkPlan = s.evaluate(lf, &w, false) }); n != 0 {
						t.Errorf("%s %v extras=%v %v %v: a warm leaf allocates %v times, want 0",
							o.topology().Name, mode, extras, lf.g, lf.pl, n)
					}
				}
				if scored < 4 {
					t.Fatalf("%s %v: only %d feasible leaves", o.topology().Name, mode, scored)
				}
			}
		}
	}
}
