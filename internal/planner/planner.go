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
	"strings"
	"time"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
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
	// domain / pure-batch given the grid (pure batch only when P ≤ B).
	Auto
)

func (m Mode) String() string {
	switch m {
	case Uniform:
		return "uniform"
	case ConvBatch:
		return "conv-batch"
	case ConvDomain:
		return "conv-domain"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts a flag or spec value into a Mode. The empty string
// parses as Uniform (the zero value), mirroring timeline.ParsePolicy.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "":
		return Uniform, nil
	case "conv-batch", "convbatch":
		return ConvBatch, nil
	case "conv-domain", "convdomain":
		return ConvDomain, nil
	case "auto":
		return Auto, nil
	}
	return Uniform, fmt.Errorf("planner: unknown mode %q (want uniform|conv-batch|conv-domain|auto)", s)
}

// MarshalText implements encoding.TextMarshaler so a Mode embeds in JSON
// specs as its canonical string. Out-of-range values error rather than
// emitting an unparseable "Mode(n)".
func (m Mode) MarshalText() ([]byte, error) {
	switch m {
	case Uniform, ConvBatch, ConvDomain, Auto:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("planner: cannot marshal invalid mode %d", int(m))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseMode, so
// String → Parse round-trips through JSON exactly.
func (m *Mode) UnmarshalText(text []byte) error {
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Plan is one evaluated configuration.
type Plan struct {
	Grid grid.Grid
	// Placement is the rank placement the plan was priced under (only
	// meaningful with a two-level Options.Topology; row-major otherwise).
	Placement  grid.Placement
	Mode       Mode
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
	// MemoryWords is the per-process footprint: the tightest stage's
	// costmodel.MemoryStages estimate (weights plus the activation-stash
	// high-water mark; costmodel.Memory at M = 1 on one stage).
	MemoryWords float64
	// ExposedCommSeconds is the communication the schedule could not hide
	// behind computation (IterSeconds − CompSeconds, ≥ 0).
	ExposedCommSeconds float64
	// Timeline holds the per-layer schedule when Options.UseTimeline is
	// set (nil otherwise).
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

// feasible reports whether grid g can run batch B of net under mode, and
// if not, why. The constraints:
//   - Pc ≤ B: the batch dimension cannot be split thinner than one sample
//     (the strong-scaling limit of pure batch parallelism, Section 2.4);
//   - ConvBatch needs P ≤ B (conv layers run pure batch over all P);
//   - Domain needs Pr ≤ the spatial height of every domain layer's input
//     (a sample cannot be split into more slabs than it has rows).
func feasible(net *nn.Network, B int, g grid.Grid, mode Mode) (bool, string) {
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

// assignmentFor builds the Eq. 9 layer assignment for a grid under a mode.
func assignmentFor(net *nn.Network, B int, g grid.Grid, mode Mode, env costmodel.Env) costmodel.Assignment {
	switch mode {
	case Uniform:
		return costmodel.UniformAssignment(net, costmodel.Model)
	case ConvBatch:
		return costmodel.ConvAssignment(net, costmodel.BatchOnly, costmodel.Model)
	case ConvDomain:
		return costmodel.ConvAssignment(net, costmodel.Domain, costmodel.Model)
	case Auto:
		return env.AutoAssignment(net, B, g)
	}
	return nil
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
// block starting at rank k·g.P().
func Evaluate(net *nn.Network, B int, g grid.Grid, opts Options) Plan {
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
	opts.StageCounts, opts.BatchSizes = nil, nil
	return Evaluate(net, B, g, opts)
}

// structural returns why the leaf violates a constraint that needs no
// pricing — the grid's feasibility, the batch-parallelism cap, and the
// micro-batch tiling — or "" when it satisfies them all.
func (s *search) structural(lf *leaf) string {
	g, B, M := lf.g, lf.B, lf.micro
	if ok, reason := feasible(s.net, B, g, s.opts.Mode); !ok {
		return reason
	}
	if s.opts.MaxPc > 0 && g.Pc > s.opts.MaxPc {
		return fmt.Sprintf("Pc=%d exceeds the batch-parallelism cap %d", g.Pc, s.opts.MaxPc)
	}
	if M < 1 || B%M != 0 {
		return fmt.Sprintf("micro-batch count %d does not divide B=%d", M, B)
	}
	if B/M < g.Pc {
		return fmt.Sprintf("micro-batch size %d is thinner than Pc=%d", B/M, g.Pc)
	}
	return ""
}

// evaluate prices one leaf — (B, S, grid, placement, partition, M) —
// counting the candidate and its pruning/pricing outcome in st and
// accumulating the phase wall times. Every leaf's footprint is the
// tightest stage's costmodel.MemoryStages estimate, checked against the
// memory limit before pricing. There is one scorer per value of
// UseTimeline:
//   - the closed form (validate forces M = 1 and S = 1 there), with
//     communication priced by Eq. 9 (chosen and priced in one pass under
//     Auto, costmodel.Env.AutoIntegrated);
//   - for every timeline leaf, one costmodel.Env.PriceStages — the
//     trivial partition when S = 1, one micro-batch when M = 1 — with
//     each conv layer's strategy chosen at the micro-batch size the
//     schedule actually runs (α-heavy small messages can flip it
//     relative to the full-batch choice), accounted to the price phase,
//     then one scheduling call accounted to the simulate phase.
//
// The timeline is scored without spans (timeline.Score) unless spans is
// set; run sets it only to re-evaluate the slot winners it reports. The
// search's level-span and gradient-price memo is bit-identical to fresh
// pricing, so plans do not depend on memo state.
func (s *search) evaluate(lf *leaf, st *SearchStats, spans bool) Plan {
	o, net := &s.opts, s.net
	g, B, M, S := lf.g, lf.B, lf.micro, lf.S
	st.Candidates++
	p := Plan{Grid: g, Batch: B, Placement: lf.pl, Mode: o.Mode, MicroBatch: M, Schedule: o.Schedule, Stages: S}
	if S > 1 {
		st.StageCandidates++
		p.Partition = lf.part.Cuts()
	}
	if p.Reason = s.structural(lf); p.Reason != "" {
		st.InfeasiblePruned++
		return p
	}
	priceStart := time.Now()
	env := costmodel.Env{Topo: o.topology(), Placement: lf.pl, Spans: s.spans}
	var bd *costmodel.Breakdown
	if !o.UseTimeline && o.Mode == Auto {
		bd, p.Assignment = env.AutoIntegrated(net, B, g)
	} else {
		p.Assignment = assignmentFor(net, B/M, g, o.Mode, env)
	}
	sched := timeline.Schedule{Shape: o.Schedule, MicroBatches: M, Stages: S}
	grids := make([]grid.Grid, S)
	for k := range grids {
		grids[k] = g
	}
	// The tightest stage governs feasibility: every process must fit its
	// own stage's weights plus the stash its schedule position forces.
	for _, m := range costmodel.MemoryStages(net, B, lf.part, grids, p.Assignment, sched) {
		p.MemoryWords = math.Max(p.MemoryWords, m.TotalWords())
	}
	if o.MemoryLimitWords > 0 && p.MemoryWords > o.MemoryLimitWords {
		stash := "" // the prune reason's prefix names what overflowed
		if S > 1 {
			stash = "stage stash: "
		} else if M > 1 {
			stash = "activation stash: "
		}
		p.Reason = fmt.Sprintf("%sper-process memory %.3g words exceeds limit %.3g",
			stash, p.MemoryWords, o.MemoryLimitWords)
		st.MemoryPruned++
		st.PriceSeconds += time.Since(priceStart).Seconds()
		return p
	}
	st.Priced++
	if !o.UseTimeline {
		if bd == nil {
			bd = env.FullIntegrated(net, B, g, p.Assignment)
		}
		st.PriceSeconds += time.Since(priceStart).Seconds()
		p.Breakdown = bd
		p.CommSeconds = bd.TotalSeconds()
		p.CompSeconds = o.Compute.GridIterTime(net, B, g)
		p.IterSeconds = costmodel.IterationSeconds(bd, p.CompSeconds, o.Overlap)
	} else {
		sp, err := env.PriceStages(net, B, lf.part, grids, p.Assignment, o.Compute, sched)
		simStart := time.Now()
		st.PriceSeconds += simStart.Sub(priceStart).Seconds()
		var sc costmodel.StagePipelineCost
		if err == nil {
			sc, err = sp.Simulate(o.TimelinePolicy, spans)
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
		p.Breakdown = sc.Breakdown // per-micro-batch costs, all stages in layer order
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
			p.CommSeconds = sc.Breakdown.TotalSeconds()
			p.CompSeconds = sc.Overhead
			for _, l := range sp.Layers {
				p.CompSeconds += l.FwdComp + l.BwdComp
			}
		}
	}
	p.Feasible = true
	if o.AddRedistribution {
		// Activations are redistributed at every strategy boundary of
		// every micro-batch; the all-gathers block the next layer's
		// compute, so they are never overlapped.
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

// optimize is Optimize with the per-search level-span memo switchable:
// memoSpans=false classifies every candidate's placement afresh, the
// reference the memo's parity tests compare against.
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
