package timeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// StageResource returns pipeline stage s's copy of a base lane, the lane
// encoding the reference event builders below write by hand.
// StageResource(base, 0) == base.
func StageResource(base Resource, stage int) Resource {
	if base < 0 || base >= numBaseResources || stage < 0 {
		panic(fmt.Sprintf("timeline: no stage %d copy of lane %v", stage, base))
	}
	return base + Resource(stage)*numBaseResources
}

// The degenerate schedule (M = 1, S = 1) must reproduce the
// independent single-iteration builder (simulateLayers) bit for bit —
// same spans, same order, same floats, same dependencies — across
// policies, shapes, and random nets (flat and with per-level splits).
func TestPipelineSingleMatchesSimulateLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		split := trial%3 == 0
		layers := randomLayers(rng, n, split)
		for _, pol := range []Policy{PolicyNone, PolicyBackprop, PolicyFull} {
			for _, shape := range []Shape{GPipe, OneFOneB} {
				want, err := simulateLayers(layers, pol)
				if err != nil {
					t.Fatalf("trial %d: simulateLayers: %v", trial, err)
				}
				got, err := SimulatePipeline(layers, pol, Schedule{Shape: shape, MicroBatches: 1, Stages: 1})
				if err != nil {
					t.Fatalf("trial %d: SimulatePipeline: %v", trial, err)
				}
				if !reflect.DeepEqual(want.Spans, got.Spans) {
					t.Fatalf("trial %d policy %v shape %v: pipeline spans diverge from single-iteration spans\nwant %+v\ngot  %+v",
						trial, pol, shape, want.Spans, got.Spans)
				}
				if got.Makespan != want.Makespan {
					t.Fatalf("trial %d policy %v shape %v: makespan %g != %g",
						trial, pol, shape, got.Makespan, want.Makespan)
				}
				if got.ExposedCommSeconds != want.ExposedCommSeconds || got.DrainSeconds != want.DrainSeconds {
					t.Fatalf("trial %d policy %v shape %v: exposure/drain diverge", trial, pol, shape)
				}
			}
		}
	}
}

// uniformStages builds S identical compute-only layers, one per stage.
func uniformStages(S int, fwd, bwd float64) []Layer {
	layers := make([]Layer, S)
	for i := range layers {
		layers[i] = Layer{Name: fmt.Sprintf("stage%d", i), FwdComp: fwd, BwdComp: bwd}
	}
	return layers
}

// The gpipe fill–drain bubble on S uniform stages is the closed form
// (S−1)/(M+S−1), and the makespan is (M+S−1)·(f+b).
func TestGPipeBubbleFractionClosedForm(t *testing.T) {
	const f, b = 3e-3, 7e-3
	for _, S := range []int{1, 2, 3, 4, 8} {
		for _, M := range []int{1, 2, 4, 7, 16} {
			layers := uniformStages(S, f, b)
			res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: S})
			if err != nil {
				t.Fatalf("S=%d M=%d: %v", S, M, err)
			}
			wantSpan := float64(M+S-1) * (f + b)
			if d := math.Abs(res.Makespan - wantSpan); d > 1e-9*wantSpan {
				t.Errorf("S=%d M=%d: makespan %g, want %g", S, M, res.Makespan, wantSpan)
			}
			want := float64(S-1) / float64(M+S-1)
			if d := math.Abs(res.BubbleFraction - want); d > 1e-9 {
				t.Errorf("S=%d M=%d: bubble fraction %g, want %g (Δ %g)", S, M, res.BubbleFraction, want, d)
			}
			if res.MicroBatches != M || res.Stages != S {
				t.Errorf("S=%d M=%d: result echoes M=%d S=%d", S, M, res.MicroBatches, res.Stages)
			}
		}
	}
}

// 1F1B has the same bubble as gpipe on uniform stages — its advantage is
// the activation stash, not the bubble.
func TestOneFOneBBubbleMatchesGPipe(t *testing.T) {
	const f, b = 2e-3, 5e-3
	for _, S := range []int{1, 2, 4} {
		for _, M := range []int{1, 3, 8} {
			layers := uniformStages(S, f, b)
			res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: OneFOneB, MicroBatches: M, Stages: S})
			if err != nil {
				t.Fatalf("S=%d M=%d: %v", S, M, err)
			}
			want := float64(S-1) / float64(M+S-1)
			if d := math.Abs(res.BubbleFraction - want); d > 1e-9 {
				t.Errorf("S=%d M=%d: 1f1b bubble fraction %g, want %g", S, M, res.BubbleFraction, want)
			}
		}
	}
}

// maxInFlight returns, per stage, the peak number of micro-batches
// between their first forward-compute start and last backward-compute
// end on that stage — the activation stash the schedule forces.
func maxInFlight(res *Result, sched Schedule, L int) []int {
	type window struct{ start, end float64 }
	wins := make(map[int]map[int]*window) // stage → micro → window
	for _, sp := range res.Spans {
		if sp.Resource.Base() != Compute {
			continue
		}
		st := sp.Resource.PipelineStage()
		if wins[st] == nil {
			wins[st] = make(map[int]*window)
		}
		w := wins[st][sp.Micro]
		if w == nil {
			w = &window{start: sp.Start, end: sp.End}
			wins[st][sp.Micro] = w
		}
		if sp.Start < w.start {
			w.start = sp.Start
		}
		if sp.End > w.end {
			w.end = sp.End
		}
	}
	peak := make([]int, sched.Stages)
	for st, micros := range wins {
		// Sweep line: ends sort before starts at the same instant, so a
		// back-to-back retire/admit does not count as overlap.
		type edge struct {
			t     float64
			delta int
		}
		var edges []edge
		for _, w := range micros {
			edges = append(edges, edge{w.start, 1}, edge{w.end, -1})
		}
		sortEdges := func(i, j int) bool {
			if edges[i].t != edges[j].t {
				return edges[i].t < edges[j].t
			}
			return edges[i].delta < edges[j].delta
		}
		sort.Slice(edges, sortEdges)
		n := 0
		for _, e := range edges {
			n += e.delta
			if n > peak[st] {
				peak[st] = n
			}
		}
	}
	return peak
}

// gpipe stashes all M micro-batches on every stage; 1f1b caps stage s at
// S−s in flight.
func TestScheduleStashBounds(t *testing.T) {
	const S, M = 4, 8
	layers := uniformStages(S, 1e-3, 2e-3)
	gp, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: S})
	if err != nil {
		t.Fatal(err)
	}
	for st, n := range maxInFlight(gp, Schedule{Stages: S}, S) {
		if n != M {
			t.Errorf("gpipe stage %d: %d micro-batches in flight, want all %d", st, n, M)
		}
	}
	ob, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: OneFOneB, MicroBatches: M, Stages: S})
	if err != nil {
		t.Fatal(err)
	}
	for st, n := range maxInFlight(ob, Schedule{Stages: S}, S) {
		if want := S - st; n > want {
			t.Errorf("1f1b stage %d: %d micro-batches in flight, want ≤ %d", st, n, want)
		}
	}
}

// The ∆W all-reduce is deferred to the flush: exactly one GradReduce
// event per layer (per link level) regardless of M, carrying the full
// per-layer duration.
func TestPipelineFlushSingleGradReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		layers := randomLayers(rng, 1+rng.Intn(8), trial%2 == 0)
		var wantGrad float64
		for _, l := range layers {
			wantGrad += l.GradReduce
		}
		for _, M := range []int{1, 2, 5} {
			res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: 1})
			if err != nil {
				t.Fatal(err)
			}
			perLayer := make(map[int]int)
			var gotGrad float64
			for _, sp := range res.Spans {
				if sp.Kind == GradReduce {
					perLayer[sp.Layer]++
					gotGrad += sp.Duration
				}
			}
			for li, l := range layers {
				want := 0
				if l.GradReduce > 0 {
					want = 1
					if l.Levels != nil {
						want = 0
						for _, dur := range l.Levels.GradReduce {
							if dur > 0 {
								want++
							}
						}
					}
				}
				if perLayer[li] != want {
					t.Fatalf("trial %d M=%d layer %d: %d GradReduce events, want %d", trial, M, li, perLayer[li], want)
				}
			}
			if d := math.Abs(gotGrad - wantGrad); d > 1e-12 {
				t.Fatalf("trial %d M=%d: total GradReduce time %g, want %g", trial, M, gotGrad, wantGrad)
			}
		}
	}
}

// Inter-batch pipelining (S = 1, M > 1) hides forward communication that
// no intra-iteration policy can: micro-batch m+1's forward GEMMs fill
// the stall behind micro-batch m's blocking all-gather.
func TestPipelineHidesForwardCommunication(t *testing.T) {
	layers := []Layer{
		{Name: "a", FwdComp: 1e-3, BwdComp: 2e-3, AllGather: 4e-3},
		{Name: "b", FwdComp: 1e-3, BwdComp: 2e-3, AllGather: 4e-3},
		{Name: "c", FwdComp: 1e-3, BwdComp: 2e-3},
	}
	single, err := SimulatePipeline(layers, PolicyBackprop, Single())
	if err != nil {
		t.Fatal(err)
	}
	// The same total work split into 4 micro-batches (durations ÷ 4,
	// GradReduce would stay whole but is zero here).
	const M = 4
	micro := make([]Layer, len(layers))
	for i, l := range layers {
		micro[i] = Layer{Name: l.Name, FwdComp: l.FwdComp / M, BwdComp: l.BwdComp / M,
			AllGather: l.AllGather / M}
	}
	pipe, err := SimulatePipeline(micro, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Makespan >= single.Makespan {
		t.Fatalf("pipelined makespan %g did not improve on single-iteration %g", pipe.Makespan, single.Makespan)
	}
	if pipe.ExposedCommSeconds >= single.ExposedCommSeconds {
		t.Fatalf("pipelined exposure %g did not improve on single-iteration %g",
			pipe.ExposedCommSeconds, single.ExposedCommSeconds)
	}
}

// Per-resource accounting: idle = makespan − busy per lane, and the
// bubble sums the compute lanes' idle time.
func TestPerResourceStats(t *testing.T) {
	layers := uniformStages(3, 1e-3, 2e-3)
	layers[1].ActReduce = 5e-4
	res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: 4, Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	var bubble float64
	seen := make(map[Resource]bool)
	for _, rs := range res.PerResource {
		if seen[rs.Resource] {
			t.Fatalf("resource %v listed twice", rs.Resource)
		}
		seen[rs.Resource] = true
		if d := math.Abs(rs.IdleSeconds - (res.Makespan - rs.BusySeconds)); d > 1e-15 {
			t.Errorf("resource %v: idle %g != makespan−busy %g", rs.Resource, rs.IdleSeconds, res.Makespan-rs.BusySeconds)
		}
		if rs.Resource.Base() == Compute {
			bubble += rs.IdleSeconds
		}
	}
	if d := math.Abs(bubble - res.BubbleSeconds); d > 1e-12 {
		t.Errorf("compute idle sum %g != BubbleSeconds %g", bubble, res.BubbleSeconds)
	}
}

// Micro-batch labels reach the span names so Gantt charts stay legible.
func TestPipelineEventNamesCarryMicroLabels(t *testing.T) {
	layers := uniformStages(2, 1e-3, 1e-3)
	res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: 3, Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s %s µ2", FwdComp, "stage1")
	found := false
	for _, sp := range res.Spans {
		name := res.SpanName(sp)
		if name == want {
			found = true
		}
		if !strings.Contains(name, "µ") {
			t.Fatalf("event %q lacks a micro-batch label", name)
		}
	}
	if !found {
		t.Fatalf("no event named %q in the schedule", want)
	}
}

func TestScheduleValidation(t *testing.T) {
	layers := uniformStages(2, 1e-3, 1e-3)
	cases := []Schedule{
		{Shape: GPipe, MicroBatches: 0, Stages: 1},
		{Shape: GPipe, MicroBatches: 1, Stages: 0},
		{Shape: GPipe, MicroBatches: 2, Stages: 3}, // more stages than layers
		{Shape: Shape(99), MicroBatches: 1, Stages: 1},
	}
	for _, sched := range cases {
		if _, err := SimulatePipeline(layers, PolicyBackprop, sched); err == nil {
			t.Errorf("schedule %+v: expected an error", sched)
		}
	}
}

// Table-driven round-trip: String and Parse are inverses for every
// policy and schedule shape, and unknown inputs surface an error naming
// the offending value.
func TestPolicyAndScheduleStringParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyNone, PolicyBackprop, PolicyFull} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, s := range []Shape{GPipe, OneFOneB} {
		got, err := ParseSchedule(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSchedule(%q) = %v, %v; want %v", s.String(), got, s, s)
		}
	}
	for _, bad := range []string{"bogus", "2f2b", "pipeline"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParsePolicy(%q): want error naming the input, got %v", bad, err)
		}
		if _, err := ParseSchedule(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseSchedule(%q): want error naming the input, got %v", bad, err)
		}
	}
}

// simulateLayers simulates one iteration with the reference builder.
func simulateLayers(layers []Layer, policy Policy) (*Result, error) {
	for i := range layers {
		layers[i].validate(i)
	}
	spans, err := Simulate(buildEvents(layers, policy))
	if err != nil {
		return nil, err
	}
	return summarizeReference(layers, policy, spans, 1, 1), nil
}

// buildEvents is the independent single-iteration builder the pipeline
// builder is checked against: it lays out one iteration — forward compute
// for layers 0..L−1, then backward compute for layers L−1..0, with
// communication events wired according to the policy.
//
// Dependencies are passed around as *handles*: a handle is the list of
// event indices whose completion stands for the completion of a (possibly
// zero-duration) step. A zero-duration step emits no event and its handle
// is simply its own dependency handle, so prerequisites forward
// transitively through skipped events instead of being dropped.
func buildEvents(layers []Layer, policy Policy) []Event {
	var events []Event
	lastReal := -1 // most recent real event, for PolicyNone serialization
	add := func(layer int, kind Kind, res Resource, dur float64, deps []int) []int {
		if dur == 0 {
			return deps
		}
		d := append([]int(nil), deps...)
		if policy == PolicyNone && lastReal >= 0 {
			// Serialize on the immediately preceding event; transitive
			// dependencies make the full chain.
			d = append(d, lastReal)
		}
		id := len(events)
		events = append(events, Event{
			Layer:    layer,
			Kind:     kind,
			Resource: res,
			Duration: dur,
			Deps:     d,
		})
		lastReal = id
		return []int{id}
	}
	union := func(hs ...[]int) []int {
		var out []int
		for _, h := range hs {
			out = append(out, h...)
		}
		return out
	}
	// comm emits one communication step: a single Network event on a flat
	// layer, or a chain of per-level lane events when the layer carries a
	// per-level split — each level's phase consumes the previous active
	// level's result (the hierarchical collective ascends the topology),
	// so level i+1's event depends on level i's. The returned handle
	// completes when the whole step does.
	comm := func(layer int, kind Kind, deps []int) []int {
		l := layers[layer]
		if l.Levels == nil {
			return add(layer, kind, Network, l.commDur(kind), deps)
		}
		cur := deps
		var done []int
		for lvl, dur := range l.Levels.get(kind) {
			if dur == 0 {
				continue
			}
			ev := add(layer, kind, NetworkLevel(lvl), dur, cur)
			done = union(done, ev)
			cur = union(deps, ev)
		}
		if done == nil {
			return deps
		}
		return done
	}

	L := len(layers)
	fwdDone := make([][]int, L) // FwdComp handle per layer
	agDone := make([][]int, L)  // AllGather handle per layer

	// Forward pass.
	for i := range layers {
		var deps []int
		if i > 0 {
			deps = union(deps, fwdDone[i-1])
			if policy != PolicyFull {
				deps = union(deps, agDone[i-1]) // all-gather blocks the next GEMM
			}
		}
		halo := comm(i, FwdHalo, deps)
		fdeps := deps
		if policy != PolicyFull {
			fdeps = union(deps, halo) // input halo blocks this GEMM
		}
		fwdDone[i] = add(i, FwdComp, Compute, layers[i].FwdComp, fdeps)
		agDone[i] = comm(i, AllGather, fwdDone[i])
	}

	// Backward pass, last layer first.
	var prevBwd []int
	for i := L - 1; i >= 0; i-- {
		var deps []int
		if i < L-1 {
			deps = prevBwd
		} else {
			// The loss needs the last forward GEMM and (except under
			// PolicyFull) its gathered activations.
			deps = fwdDone[L-1]
			if policy != PolicyFull {
				deps = union(fwdDone[L-1], agDone[L-1])
			}
		}
		bwd := add(i, BwdComp, Compute, layers[i].BwdComp, deps)
		// Backward communication is issued at the start of the layer's
		// backprop (gradient chunks stream out as they are produced), so
		// it shares the compute event's dependencies rather than waiting
		// for it — the per-layer form of the Fig. 8 idealization. Under
		// PolicyNone the add() serialization reinstates strict order.
		commDeps := deps
		if policy == PolicyNone {
			commDeps = bwd
		}
		comm(i, BwdHalo, commDeps)
		comm(i, ActReduce, commDeps)
		comm(i, GradReduce, commDeps)
		prevBwd = bwd
	}
	return events
}

// buildPipelineEvents is the per-event-slice builder the compact graph
// (graph.go) replaced, kept verbatim as its oracle.
//
// buildPipelineEvents lays out M micro-batch passes over the layer graph,
// wiring each pass by the overlap policy and adding the pipeline edges
// described in the package comment above.
//
// Dependencies are passed around as *handles*: a handle is the list of
// event indices whose completion stands for the completion of a (possibly
// zero-duration) step. A zero-duration step emits no event and its handle
// is simply its own dependency handle, so prerequisites forward
// transitively through skipped events instead of being dropped.
func buildPipelineEvents(layers []Layer, policy Policy, sched Schedule) []Event {
	L := len(layers)
	M := sched.MicroBatches
	S := sched.Stages
	stage := func(i int) int { return sched.stageOf(i, L) }
	// stageFirst/stageLast bound each stage's layer range: the stage's
	// first layer is where its forward pass enters (and its backward
	// pass exits), the last layer the reverse.
	stageFirst := make([]int, S)
	stageLast := make([]int, S)
	for k := range stageFirst {
		stageFirst[k] = -1
	}
	for i := 0; i < L; i++ {
		k := stage(i)
		if stageFirst[k] < 0 {
			stageFirst[k] = i
		}
		stageLast[k] = i
	}

	var events []Event
	lastReal := -1 // most recent real event, for PolicyNone serialization
	add := func(micro, layer int, kind Kind, res Resource, dur float64, deps []int) []int {
		if dur == 0 {
			return deps
		}
		d := append([]int(nil), deps...)
		if policy == PolicyNone && lastReal >= 0 {
			d = append(d, lastReal)
		}
		id := len(events)
		events = append(events, Event{
			Layer:    layer,
			Micro:    micro,
			Kind:     kind,
			Resource: res,
			Duration: dur,
			Deps:     d,
		})
		lastReal = id
		return []int{id}
	}
	union := func(hs ...[]int) []int {
		var out []int
		for _, h := range hs {
			out = append(out, h...)
		}
		return out
	}
	// xfer emits one inter-stage handoff on the receiving stage's link
	// lane (the boundary's own level lane when the layer is priced
	// hierarchically). It reports whether an event was emitted so callers
	// leave dependency handles untouched for zero-duration handoffs —
	// keeping partitioned schedules with free boundaries bit-identical to
	// unpartitioned ones.
	xfer := func(micro, layer int, kind Kind, toStage int, deps []int) ([]int, bool) {
		l := layers[layer]
		dur := l.FwdXfer
		if kind == BwdXfer {
			dur = l.BwdXfer
		}
		if dur == 0 {
			return nil, false
		}
		res := StageResource(Network, toStage)
		if l.Levels != nil {
			res = StageResource(NetworkLevel(l.XferLevel), toStage)
		}
		return add(micro, layer, kind, res, dur, deps), true
	}
	comm := func(micro, layer int, kind Kind, deps []int) []int {
		l := layers[layer]
		st := stage(layer)
		if l.Levels == nil {
			return add(micro, layer, kind, StageResource(Network, st), l.commDur(kind), deps)
		}
		cur := deps
		var done []int
		for lvl, dur := range l.Levels.get(kind) {
			if dur == 0 {
				continue
			}
			ev := add(micro, layer, kind, StageResource(NetworkLevel(lvl), st), dur, cur)
			done = union(done, ev)
			cur = union(deps, ev)
		}
		if done == nil {
			return deps
		}
		return done
	}

	fwdDone := make([][][]int, M) // [micro][layer] forward-compute handle
	agDone := make([][][]int, M)  // [micro][layer] all-gather handle
	bwdDone := make([][][]int, M) // [micro][layer] backward-compute handle

	// emitForward lays out micro-batch m's forward pass: each layer's
	// input halo and the previous layer's all-gather block its GEMM
	// (except under PolicyFull).
	emitForward := func(m int) {
		fwdDone[m] = make([][]int, L)
		agDone[m] = make([][]int, L)
		for i := 0; i < L; i++ {
			var deps []int
			if i > 0 {
				deps = union(deps, fwdDone[m][i-1])
				if policy != PolicyFull {
					deps = union(deps, agDone[m][i-1]) // all-gather blocks the next GEMM
				}
			}
			if sched.Shape == OneFOneB && i == stageFirst[stage(i)] {
				// Steady-state stash cap: stage s admits forward m only
				// after retiring backward m−(S−s) — the handle exists
				// because 1F1B emission alternates F_m, B_m below.
				if k := m - (S - stage(i)); k >= 0 {
					deps = union(deps, bwdDone[k][i])
				}
			}
			if st := stage(i); i == stageFirst[st] && st > 0 {
				// Pipeline boundary: the layer's input activations arrive
				// from the previous stage. The handoff is a true data
				// dependency — it gates this layer's forward under every
				// policy, unlike the collectives PolicyFull un-blocks.
				if ev, ok := xfer(m, i, FwdXfer, st, deps); ok {
					deps = union(deps, ev)
				}
			}
			halo := comm(m, i, FwdHalo, deps)
			fdeps := deps
			if policy != PolicyFull {
				fdeps = union(deps, halo) // input halo blocks this GEMM
			}
			fwdDone[m][i] = add(m, i, FwdComp, StageResource(Compute, stage(i)), layers[i].FwdComp, fdeps)
			agDone[m][i] = comm(m, i, AllGather, fwdDone[m][i])
		}
	}

	// emitBackward lays out micro-batch m's backward pass, last layer
	// first. The ∆W all-reduce is deferred to the flush: gradients
	// accumulate locally and the collective is issued once, streaming
	// with the last micro-batch's backprop of the layer.
	emitBackward := func(m int) {
		bwdDone[m] = make([][]int, L)
		var prevBwd []int
		for i := L - 1; i >= 0; i-- {
			var deps []int
			if i < L-1 {
				deps = prevBwd
			} else {
				// The loss needs the micro-batch's last forward GEMM and
				// (except under PolicyFull) its gathered activations.
				deps = fwdDone[m][L-1]
				if policy != PolicyFull {
					deps = union(fwdDone[m][L-1], agDone[m][L-1])
				}
			}
			if M > 1 && sched.Shape == GPipe && i == stageLast[stage(i)] {
				// Fill–drain: the stage's backward work starts only after
				// the stage flushed all M forwards.
				deps = union(deps, fwdDone[M-1][i])
			}
			bwd := add(m, i, BwdComp, StageResource(Compute, stage(i)), layers[i].BwdComp, deps)
			// Backward communication is issued at the start of the layer's
			// backprop (gradient chunks stream out as they are produced) —
			// the per-layer form of the Fig. 8 idealization. Under
			// PolicyNone the add() serialization reinstates strict order.
			commDeps := deps
			if policy == PolicyNone {
				commDeps = bwd
			}
			comm(m, i, BwdHalo, commDeps)
			comm(m, i, ActReduce, commDeps)
			if m == M-1 {
				comm(m, i, GradReduce, commDeps)
			}
			prevBwd = bwd
			if st := stage(i); i == stageFirst[st] && st > 0 {
				// Pipeline boundary: ∆X returns to the previous stage.
				// Like the other backward communication it streams with the
				// producing backprop, but the downstream stage's next
				// backprop genuinely needs the received gradient, so the
				// handoff joins the backward chain handle.
				if ev, ok := xfer(m, i, BwdXfer, st-1, commDeps); ok {
					prevBwd = union(bwd, ev)
				}
			}
			bwdDone[m][i] = bwd
		}
	}

	// Emission order matters for the handles each pass may reference:
	// GPipe's backward flush edge needs the last micro-batch's forward
	// handles (all forwards first), while 1F1B's stash edge needs earlier
	// micro-batches' backward handles (alternate F_m, B_m). Both orders
	// reduce to F_0, B_0 at M = 1 — one plain iteration.
	if sched.Shape == OneFOneB {
		for m := 0; m < M; m++ {
			emitForward(m)
			emitBackward(m)
		}
	} else {
		for m := 0; m < M; m++ {
			emitForward(m)
		}
		for m := 0; m < M; m++ {
			emitBackward(m)
		}
	}
	return events
}

// summarizeReference is the map-keyed summary the scheduler's inline
// aggregates replaced, kept as the oracle for SimulatePipeline's Result.
func summarizeReference(layers []Layer, policy Policy, spans []Span, microBatches, stages int) *Result {
	r := &Result{Policy: policy, Spans: spans, MicroBatches: microBatches, Stages: stages}
	r.PerLayer = make([]LayerStats, len(layers))
	for i := range layers {
		r.PerLayer[i].Name = layers[i].Name
		if r.LevelNames == nil && layers[i].Levels != nil {
			r.LevelNames = layers[i].Levels.Names
		}
	}
	lastComputeEnd := 0.0
	prevComputeEnd := make(map[Resource]float64) // per compute pipe
	busy := make(map[Resource]float64)
	for _, s := range spans {
		if s.End > r.Makespan {
			r.Makespan = s.End
		}
		busy[s.Resource] += s.Duration
		st := &r.PerLayer[s.Layer]
		if s.Resource.Base() == Compute {
			r.ComputeSeconds += s.Duration
			st.CompSeconds += s.Duration
			if gap := s.Start - prevComputeEnd[s.Resource]; gap > 0 {
				// Attribute the stall to the compute event that ends it.
				if s.Kind == FwdComp {
					st.FwdExposed += gap
				} else {
					st.BwdExposed += gap
				}
			}
			prevComputeEnd[s.Resource] = s.End
			if s.End > lastComputeEnd {
				lastComputeEnd = s.End
			}
		} else {
			// Every non-compute lane (Network, the per-level link lanes
			// and their per-stage copies) is communication.
			r.CommSeconds += s.Duration
			st.CommSeconds += s.Duration
		}
	}
	r.ExposedCommSeconds = r.Makespan - r.ComputeSeconds
	if r.ExposedCommSeconds < 0 {
		// Float noise on one stage; genuinely concurrent pipes beyond it.
		r.ExposedCommSeconds = 0
	}
	r.DrainSeconds = r.Makespan - lastComputeEnd
	if r.DrainSeconds < 0 {
		r.DrainSeconds = 0
	}
	resources := make([]Resource, 0, len(busy))
	for res := range busy {
		resources = append(resources, res)
	}
	sort.Slice(resources, func(i, j int) bool { return resources[i] < resources[j] })
	for _, res := range resources {
		r.PerResource = append(r.PerResource, ResourceStats{
			Resource:    res,
			BusySeconds: busy[res],
			IdleSeconds: r.Makespan - busy[res],
		})
	}
	// The bubble sums every stage pipe's idle time — including pipes
	// with no scheduled work at all (a stage whose layers have zero
	// compute is idle for the whole window).
	r.BubbleSeconds = float64(stages)*r.Makespan - r.ComputeSeconds
	if r.BubbleSeconds < 0 {
		r.BubbleSeconds = 0
	}
	if r.Makespan > 0 && stages > 0 {
		r.BubbleFraction = r.BubbleSeconds / (float64(stages) * r.Makespan)
	}
	return r
}
