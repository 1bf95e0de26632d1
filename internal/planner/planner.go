// Package planner turns the paper's analysis into a decision procedure:
// given a network, a global minibatch size B, a process count P and a
// machine, it searches the Pr × Pc factorizations and per-layer strategy
// assignments of Eq. 9 and returns the configuration minimizing predicted
// iteration time. This is the "automatically selects the best
// configuration" capability claimed in Section 2.3, including the
// beyond-batch regime P > B of Section 2.4 where only domain/model
// parallelism can supply the extra processes.
package planner

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/enum"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// Mode selects how convolutional layers are treated during the search.
type Mode int

const (
	// Uniform applies the same Pr × Pc model+batch grid to every layer
	// (the Fig. 6 setting).
	Uniform Mode = iota
	// ConvBatch forces convolutional layers to pure batch parallelism
	// (Pr = 1 for conv; the Fig. 7 setting). Requires P ≤ B.
	ConvBatch
	// ConvDomain uses domain parallelism on convolutional layers and
	// 1.5D model+batch on FC layers (the Fig. 10 setting).
	ConvDomain
	// Auto picks, per convolutional layer, the cheapest of model /
	// domain / pure-batch given the grid (pure batch only when P ≤ B):
	// it requests costmodel.Cheapest, which each leaf's pricing pass
	// resolves on the rank block of the stage that runs the layer.
	Auto
)

var modes = enum.New("mode", "mode",
	[]string{"uniform", "conv-batch", "conv-domain", "auto"},
	map[string]Mode{"convbatch": ConvBatch, "convdomain": ConvDomain})

func (m Mode) String() string { return modes.String(m) }

// ParseMode converts a flag or spec value into a Mode (see package enum
// for the spelling rule).
func ParseMode(s string) (Mode, error) { return modes.Parse(s) }

// Validate returns MarshalText's error, or nil without allocating.
func (m Mode) Validate() error { return modes.Validate(m) }

// MarshalText implements encoding.TextMarshaler so a Mode embeds in JSON
// specs as its canonical string.
func (m Mode) MarshalText() ([]byte, error) { return modes.Marshal(m) }

// UnmarshalText implements encoding.TextUnmarshaler via ParseMode.
func (m *Mode) UnmarshalText(text []byte) error { return modes.Unmarshal(m, text) }

// Plan is one evaluated configuration.
type Plan struct {
	Grid grid.Grid
	// Placement is the rank placement the plan was priced under (only
	// meaningful with a two-level Options.Topology; row-major otherwise).
	Placement grid.Placement
	Mode      Mode
	// Assignment is the strategy each weighted layer was priced under,
	// Auto's choices resolved. Plans of one search may share the map:
	// treat it as read-only. Breakdown is the per-layer communication
	// cost of the plan: Eq. 9 in closed form, the per-micro-batch stage
	// costs when timeline-scored.
	//
	// A search keeps numbers, not breakdowns: its leaves are priced
	// into per-worker scratch, and only the plan a search reports as
	// best — Result.Best, its Result.All entry, the plan Evaluate
	// returns — carries its own Breakdown. Every other plan has a nil
	// Breakdown, and a closed-form one under Auto a nil Assignment
	// (timeline-scored plans keep theirs); re-price one with
	// costmodel.Env.FullIntegrated or PriceStages (or EvaluateAt) when
	// its terms are needed.
	Assignment costmodel.Assignment
	Breakdown  *costmodel.Breakdown

	// MicroBatch is the micro-batch count the plan was priced at (1 =
	// single-iteration scoring); Schedule is the pipeline shape used
	// when MicroBatch > 1, and BubbleFraction the schedule's compute
	// bubble (0 for single-iteration plans on one stage only when fully
	// hidden — see timeline.Result.BubbleFraction).
	MicroBatch     int
	Schedule       timeline.Shape
	BubbleFraction float64

	// Stages is the pipeline stage count the plan was priced at (1 for
	// classic plans, where Grid spans the whole machine). For Stages >
	// 1, Grid is the shared per-stage grid (P = Stages × Grid.P()),
	// Partition lists the stage-boundary cuts into the weighted-layer
	// list, and PerStage carries the per-stage table — layers, params,
	// compute, collective seconds, activation stash, and the boundary
	// handoff volume with its topology-level attribution.
	Stages    int
	Partition []int
	PerStage  []costmodel.StageCost

	// Batch is the global batch size the plan was priced at: Optimize's
	// B argument unless a TimeToAccuracy search selected another
	// candidate from Options.BatchSizes.
	Batch int
	// StepsToTarget and TimeToAccuracySeconds are the TimeToAccuracy
	// objective's campaign prediction for a feasible plan: the modeled
	// optimization steps to the target accuracy at Batch
	// (Options.Curve.Steps), and steps × IterSeconds — the quantity the
	// search minimizes. Zero under the Iteration objective.
	StepsToTarget         float64
	TimeToAccuracySeconds float64

	CommSeconds  float64 // per-iteration communication
	CompSeconds  float64 // per-iteration computation
	IterSeconds  float64 // combined (with overlap if requested)
	EpochSeconds float64 // IterSeconds × ⌈N/B⌉ (0 when DatasetN unset)
	// MemoryWords is the per-process footprint under Assignment: the
	// tightest stage's costmodel.MemoryStages estimate (weights plus the
	// activation-stash high-water mark) as PriceStages reports it;
	// costmodel.Memory, the same at M = 1 on one stage, in closed form.
	MemoryWords float64
	// ExposedCommSeconds is the communication the schedule could not hide
	// behind computation (IterSeconds − CompSeconds, ≥ 0).
	ExposedCommSeconds float64
	// Timeline holds the simulated schedule of a priced plan when
	// Options.UseTimeline is set (nil otherwise). Only the plan a search
	// reports as best (as for Breakdown) carries its Spans, PerLayer and
	// PerResource; every other plan carries timeline.Score's aggregates
	// — makespan, compute, communication, exposed, drain and bubble
	// seconds — without them.
	Timeline *timeline.Result

	Feasible bool
	Reason   string // why infeasible, when Feasible is false
}

// String renders a one-line summary.
func (p Plan) String() string {
	if !p.Feasible {
		return fmt.Sprintf("grid %v: infeasible (%s)", p.Grid, p.Reason)
	}
	return fmt.Sprintf("grid %v: iter=%.4gs (comm %.4g + comp %.4g)",
		p.Grid, p.IterSeconds, p.CommSeconds, p.CompSeconds)
}

// Evaluate prices one (grid, mode) configuration over the placement,
// stage-count, partition and micro-batch search spaces — and, under the
// TimeToAccuracy objective, over Options.BatchSizes — and returns the
// plan Optimize would pick if g were the only grid: the feasible plan of
// lowest objective cost (equal iteration time prefers the smaller
// micro-batch count, then the earlier placement, so flat machines
// deterministically report row-major), or the first candidate's plan
// when none is feasible. For stage counts > 1 the grid is the
// shared per-stage grid: the machine has S × g.P() ranks, stage k's
// block starting at rank k·g.P(). Options Optimize would reject give an
// infeasible plan whose Reason is the validation error.
func Evaluate(net *nn.Network, B int, g grid.Grid, opts Options) Plan {
	if err := opts.validate(B, g.P()); err != nil {
		return Plan{Grid: g, Batch: B, Mode: opts.Mode, MicroBatch: 1, Schedule: opts.Schedule, Stages: 1,
			Reason: err.Error()}
	}
	s := newSearch(net, B, g.P(), opts, true)
	s.grid = &g
	var st SearchStats
	s.enumerate(&st)
	s.run(&st)
	return s.winners[max(s.best(nil), 0)]
}

// EvaluateAt prices one (grid, placement, mode) configuration at batch B
// on a single stage over the micro-batch search space
// (Options.MicroBatches) and returns the best candidate's plan. Ties
// keep the smaller M, so the legacy M = 1 scoring wins unless pipelining
// strictly helps.
func EvaluateAt(net *nn.Network, B int, g grid.Grid, pl grid.Placement, opts Options) Plan {
	opts.Placements = []grid.Placement{pl}
	opts.StageCounts, opts.Partition, opts.BatchSizes = nil, nil, nil
	p := Evaluate(net, B, g, opts)
	p.Placement = pl
	return p
}

// misfit names the first structural constraint a leaf violates — one
// that needs no pricing — or fits. The constraints, in order:
//   - Pc ≤ B: the batch dimension cannot be split thinner than one sample
//     (the strong-scaling limit of pure batch parallelism, Section 2.4);
//   - ConvBatch needs P ≤ B (conv layers run pure batch over all P);
//   - ConvDomain needs Pr ≤ the smallest conv input height (a sample
//     cannot be split into more slabs than it has rows);
//   - Pc ≤ Options.MaxPc, the batch-parallelism cap, when set;
//   - the micro-batch count M divides B, and B/M ≥ Pc.
type misfit uint8

const (
	fits misfit = iota
	pcOverBatch
	convBatchOverBatch
	domainOverHeight
	pcOverCap
	microNotDividing
	microThinnerThanPc
)

// misfit decides the leaf's structural verdict from numbers alone;
// structural labels it.
func (s *search) misfit(lf *leaf) misfit {
	g, B, M := lf.g, lf.B, lf.micro
	switch {
	case g.Pc > B:
		return pcOverBatch
	case s.opts.Mode == ConvBatch && g.P() > B:
		return convBatchOverBatch
	case s.opts.Mode == ConvDomain && g.Pr > 1 && g.Pr > s.minConvH:
		return domainOverHeight
	case s.opts.MaxPc > 0 && g.Pc > s.opts.MaxPc:
		return pcOverCap
	case M < 1 || B%M != 0:
		return microNotDividing
	case B/M < g.Pc:
		return microThinnerThanPc
	}
	return fits
}

// structural returns why the leaf violates a constraint that needs no
// pricing (see misfit), or "" when it satisfies them all.
func (s *search) structural(lf *leaf) string {
	g, B, M := lf.g, lf.B, lf.micro
	switch s.misfit(lf) {
	case pcOverBatch:
		return fmt.Sprintf("Pc=%d exceeds batch size %d", g.Pc, B)
	case convBatchOverBatch:
		return fmt.Sprintf("conv-batch needs P ≤ B, got P=%d > B=%d", g.P(), B)
	case domainOverHeight:
		return fmt.Sprintf("Pr=%d exceeds smallest conv input height %d", g.Pr, s.minConvH)
	case pcOverCap:
		return fmt.Sprintf("Pc=%d exceeds the batch-parallelism cap %d", g.Pc, s.opts.MaxPc)
	case microNotDividing:
		return fmt.Sprintf("micro-batch count %d does not divide B=%d", M, B)
	case microThinnerThanPc:
		return fmt.Sprintf("micro-batch size %d is thinner than Pc=%d", B/M, g.Pc)
	}
	return ""
}

// evaluate prices one leaf — (B, S, grid, placement, partition, M) —
// counting the candidate and its pruning/pricing outcome in w's
// telemetry shard and accumulating the phase wall times. Every leaf is
// one pricing call over the search's requested assignment, which
// resolves Auto's Cheapest conv layers. The call is:
//   - in closed form (validate forces M = 1 and S = 1 there),
//     costmodel.Env.FullIntegratedInto, the footprint costmodel.Memory;
//   - for every timeline leaf, one costmodel.Env.PriceStagesInto — the
//     trivial partition when S = 1, one micro-batch when M = 1 — which
//     resolves each stage's conv layers at the micro-batch size and on
//     the rank block the stage actually runs, and reports the tightest
//     stage's footprint; then one scheduling call, accounted to the
//     simulate phase.
//
// The memory limit is checked after pricing and before scheduling. A
// structurally infeasible or memory-pruned leaf is returned without its
// Reason: run labels the slot winners only (search.label). The leaf is
// priced into w's scratch: a breakdown and a resolved-assignment map in
// closed form, a costmodel.StageScratch on the timeline. Unless report
// is set, the leaf is only scored: the timeline without spans
// (timeline.Score), no Breakdown, and in closed form no Assignment under
// Auto. With report set, the plan is complete: the timeline carries its
// spans and its own breakdown, and the closed-form plan takes w's
// scratch over. run sets report only for the plan it reports as best
// (see run). The search's span table is bit-identical to fresh pricing, and scratch to fresh storage, so plans
// depend on neither.
func (s *search) evaluate(lf *leaf, w *worker, report bool) Plan {
	o, net, st := &s.opts, s.net, &w.st
	g, B, M, S := lf.g, lf.B, lf.micro, lf.S
	st.Candidates++
	p := Plan{Grid: g, Batch: B, Placement: lf.pl, Mode: o.Mode, MicroBatch: M, Schedule: o.Schedule, Stages: S,
		Partition: cuts(lf.part)}
	if S > 1 {
		st.StageCandidates++
	}
	if s.misfit(lf) != fits {
		st.InfeasiblePruned++
		return p
	}
	priceStart := time.Now()
	env := costmodel.Env{Topo: s.topo, Placement: lf.pl, Spans: s.spans}
	// assign is the resolved assignment the footprint and the Eq. 6
	// redistribution read.
	assign := s.assign
	var bd *costmodel.Breakdown
	var sp costmodel.StagePricing
	var err error
	if !o.UseTimeline {
		bd = &w.bd
		env.FullIntegratedInto(bd, net, B, g, assign)
		if o.Mode == Auto {
			if w.assign == nil {
				w.assign = make(costmodel.Assignment, len(bd.Layers))
			}
			assign = bd.AssignInto(w.assign)
		}
		if report {
			// The reported plan takes the scratch over; the worker grows
			// a new one should it price again.
			owned := *bd
			bd, w.bd, w.assign = &owned, costmodel.Breakdown{}, nil
		}
		if report || o.Mode != Auto {
			p.Assignment = assign
		}
		p.MemoryWords = costmodel.Memory(net, B, g, assign).TotalWords()
	} else {
		w.grids = w.grids[:0]
		for k := 0; k < S; k++ {
			w.grids = append(w.grids, g)
		}
		sched := timeline.Schedule{Shape: o.Schedule, MicroBatches: M}
		if report {
			sp, err = env.PriceStages(net, B, lf.part, w.grids, assign, o.Compute, sched)
		} else {
			sp, err = env.PriceStagesInto(&w.stage, net, B, lf.part, w.grids, assign, o.Compute, sched)
		}
		assign = sp.Assignment
		p.Assignment, p.MemoryWords = sp.Assignment, sp.MemoryWords
	}
	// The tightest stage governs feasibility: every process must fit its
	// own stage's weights plus the stash its schedule position forces.
	if o.MemoryLimitWords > 0 && p.MemoryWords > o.MemoryLimitWords {
		st.MemoryPruned++
		st.PriceSeconds += time.Since(priceStart).Seconds()
		return p
	}
	st.Priced++
	if !o.UseTimeline {
		st.PriceSeconds += time.Since(priceStart).Seconds()
		p.CompSeconds = o.Compute.GridIterTime(net, B, g)
		p.CommSeconds, p.IterSeconds = costmodel.IterationTotals(bd, p.CompSeconds, o.Overlap)
	} else {
		simStart := time.Now()
		st.PriceSeconds += simStart.Sub(priceStart).Seconds()
		var sc costmodel.StagePipelineCost
		if err == nil {
			sc, err = sp.Simulate(o.TimelinePolicy, report)
		}
		st.TimelineSimulated++
		st.SimulateSeconds += time.Since(simStart).Seconds()
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
		bd = sc.Breakdown // per-micro-batch costs, all stages in layer order
		p.Timeline = sc.Result
		p.BubbleFraction = sc.Result.BubbleFraction
		if S > 1 {
			p.PerStage = sc.Stages
		}
		p.IterSeconds = sc.IterSeconds()
		// Simulated: M·activations + 1·gradient flush, and every lane's
		// busy compute. One micro-batch on one stage is the paper's
		// bulk-synchronous iteration, reported as the Eq. 9 total and
		// the residual plus the layer times in layer order; the
		// simulated sums add per-level splits in schedule order and
		// would drift by an ulp.
		p.CommSeconds = sc.Result.CommSeconds
		p.CompSeconds = sc.Result.ComputeSeconds + sc.Overhead
		if M == 1 && S == 1 {
			p.CommSeconds = bd.TotalSeconds()
			p.CompSeconds = sc.Overhead
			for _, l := range sp.Layers {
				p.CompSeconds += l.FwdComp + l.BwdComp
			}
		}
	}
	if report {
		p.Breakdown = bd
	}
	p.Feasible = true
	if o.AddRedistribution {
		// Activations are redistributed at every strategy boundary of
		// every micro-batch; the all-gathers block the next layer's
		// compute, so they are never overlapped.
		r := float64(M) * env.RedistributionSeconds(net, B/M, g, assign, lf.part)
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

// overLimit returns why a leaf whose footprint of words exceeds the
// memory limit is infeasible; the prefix names what overflowed.
func (s *search) overLimit(lf *leaf, words float64) string {
	stash := ""
	if lf.S > 1 {
		stash = "stage stash: "
	} else if lf.micro > 1 {
		stash = "activation stash: "
	}
	return fmt.Sprintf("%sper-process memory %.3g words exceeds limit %.3g", stash, words, s.opts.MemoryLimitWords)
}

// cuts returns part's stage-boundary cuts as plans report them (nil on
// one stage), sharing the search-owned partition's storage rather than
// copying it per leaf; run gives every reported plan its own copy.
func cuts(part stage.Partition) []int {
	if n := len(part.Starts); n > 1 {
		return part.Starts[1:n:n]
	}
	return nil
}

// Result is the output of Optimize.
type Result struct {
	Best Plan
	// All holds every evaluated factorization (feasible or not), ordered
	// by increasing Pr — the bar groups of Figs. 6/7/9/10.
	All []Plan
	// PureBatch is the 1 × P baseline when feasible (the reference the
	// paper's speedup numbers are quoted against).
	PureBatch *Plan
	// Stats is the search telemetry: candidate/pruning counts (exact,
	// deterministic) and the wall-time phase split (varies run to run;
	// compare results with Stats.ZeroTimes applied).
	Stats SearchStats
}

// Speedup returns Best's improvement over the pure-batch baseline in
// total iteration time and in communication time (the bold and
// parenthesized numbers of Figs. 6–7). Returns (0, 0) when pure batch is
// infeasible (the P > B regime).
func (r Result) Speedup() (total, comm float64) {
	if r.PureBatch == nil || !r.PureBatch.Feasible || !r.Best.Feasible {
		return 0, 0
	}
	if r.Best.IterSeconds > 0 {
		total = r.PureBatch.IterSeconds / r.Best.IterSeconds
	}
	if r.Best.CommSeconds > 0 {
		comm = r.PureBatch.CommSeconds / r.Best.CommSeconds
	}
	return total, comm
}

// Optimize searches every stage count S of Options.StageCounts (default
// {1}), every Pr × Pc factorization of the per-stage process count P/S —
// and, on a two-level topology, every rank placement of each grid — plus,
// for S > 1, every candidate contiguous layer partition, returning the
// feasible plan with the lowest iteration time. Each entry of Result.All
// is one (stage count, grid) pair priced at its best placement,
// partition, and micro-batch count.
func Optimize(net *nn.Network, B, P int, opts Options) (Result, error) {
	return optimize(net, B, P, opts, true)
}

// optimize is Optimize with the per-search span table switchable:
// memoSpans=false classifies every candidate's placement afresh, the
// reference the table's parity tests compare against.
func optimize(net *nn.Network, B, P int, opts Options, memoSpans bool) (Result, error) {
	if err := opts.validate(B, P); err != nil {
		return Result{}, err
	}
	var res Result
	st := &res.Stats
	wallStart := time.Now()
	s := newSearch(net, B, P, opts, memoSpans)
	s.enumerate(st)
	st.EnumerateSeconds = time.Since(wallStart).Seconds()
	evalStart := time.Now()
	s.run(st)
	evalWall := time.Since(evalStart).Seconds()
	// The price/simulate phase times are summed across workers, so under
	// parallelism their cpu-seconds can exceed the evaluation phase's
	// wall clock; scale them onto it so the attribution identity
	// Enumerate + Price + Simulate ≤ Wall survives any worker count.
	if cpu := st.PriceSeconds + st.SimulateSeconds; cpu > evalWall {
		f := evalWall / cpu
		st.PriceSeconds *= f
		st.SimulateSeconds *= f
	}
	bi := s.best(func(p *Plan) {
		im := Improvement{
			Grid:        p.Grid.String(),
			Placement:   p.Placement,
			MicroBatch:  p.MicroBatch,
			Stages:      p.Stages,
			Partition:   p.Partition,
			IterSeconds: p.IterSeconds,
		}
		if opts.Objective == TimeToAccuracy {
			im.Batch = p.Batch
			im.TTASeconds = p.TimeToAccuracySeconds
		}
		st.Improvements = append(st.Improvements, im)
	})
	for i := range s.slots {
		if s.slots[i].pure {
			pb := s.winners[i]
			res.PureBatch = &pb
		}
	}
	res.All = s.winners
	st.WallSeconds = time.Since(wallStart).Seconds()
	if bi < 0 {
		return res, s.infeasibleError(st)
	}
	res.Best = s.winners[bi]
	// A single (stage count, batch size) emits plans in Factorizations
	// order already — increasing Pr — so only a multi-count or multi-batch
	// sweep needs the re-sort (and the hot single-stage path skips the
	// reflect-based swap entirely).
	if len(opts.stageCounts()) > 1 || len(s.batches) > 1 {
		sort.SliceStable(res.All, func(i, j int) bool {
			if res.All[i].Batch != res.All[j].Batch {
				return res.All[i].Batch < res.All[j].Batch
			}
			if res.All[i].Stages != res.All[j].Stages {
				return res.All[i].Stages < res.All[j].Stages
			}
			return res.All[i].Grid.Pr < res.All[j].Grid.Pr
		})
	}
	return res, nil
}

// infeasibleError explains an empty feasible set. When the memory limit
// alone emptied it (no candidate was ever fully priced and at least one
// fell to the limit), the error names the batch-size range tried and the
// tightest per-process footprint that still failed — the two knobs a
// caller can actually act on — instead of a bare "no feasible
// configuration".
func (s *search) infeasibleError(st *SearchStats) error {
	o := s.opts
	span := fmt.Sprintf("B=%d", s.batches[0])
	if len(s.batches) > 1 {
		span = fmt.Sprintf("B=%d..%d (%d batch sizes)", s.batches[0], s.batches[len(s.batches)-1], len(s.batches))
	}
	if st.Priced == 0 && st.MemoryPruned > 0 {
		return fmt.Errorf("planner: no feasible configuration for %s P=%d mode=%v: all %d sized candidates exceed the memory limit %.3g words (tightest footprint %.3g words)",
			span, s.P, o.Mode, st.MemoryPruned, o.MemoryLimitWords, s.tightest)
	}
	return fmt.Errorf("planner: no feasible configuration for %s P=%d mode=%v", span, s.P, o.Mode)
}
