package timeline

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomCase draws one random pipeline input: layers (flat or split
// across levels), stage count, micro-batch count, shape, policy, an
// optional explicit partition, and boundary handoffs on some stage
// openers.
func randomCase(rng *rand.Rand) ([]Layer, Policy, Schedule) {
	n := 1 + rng.Intn(12)
	layers := randomLayers(rng, n, rng.Intn(3) == 0)
	sched := Schedule{
		Shape:        []Shape{GPipe, OneFOneB}[rng.Intn(2)],
		MicroBatches: 1 + rng.Intn(4),
		Stages:       1 + rng.Intn(min(n, 4)),
	}
	if sched.Stages > 1 && rng.Intn(2) == 0 {
		// An explicit partition: random distinct stage starts after 0.
		starts := rng.Perm(n - 1)[:sched.Stages-1]
		sched.Partition = []int{0}
		for i := 1; i < n; i++ {
			for _, s := range starts {
				if s+1 == i {
					sched.Partition = append(sched.Partition, i)
				}
			}
		}
	}
	for i := range layers {
		if rng.Intn(2) == 0 {
			continue
		}
		layers[i].FwdXfer, layers[i].BwdXfer = rng.Float64(), rng.Float64()
		if rng.Intn(4) == 0 {
			layers[i].BwdXfer = 0
		}
		if layers[i].Levels != nil {
			layers[i].XferLevel = rng.Intn(len(layers[i].Levels.AllGather))
		}
	}
	return layers, Policy(rng.Intn(3)), sched
}

// SimulatePipeline must reproduce the reference builder's event graph
// run through the quadratic reference scheduler and the map-keyed
// reference summary: same spans (dependencies included), per-layer and
// per-lane statistics, and aggregates.
func TestSimulatePipelineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 600; trial++ {
		layers, pol, sched := randomCase(rng)
		got, err := SimulatePipeline(layers, pol, sched)
		if err != nil {
			t.Fatalf("trial %d (%v %v): %v", trial, pol, sched, err)
		}
		spans, err := simulateReference(buildPipelineEvents(layers, pol, sched))
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		want := summarizeReference(layers, pol, spans, sched.MicroBatches, sched.Stages)
		if !reflect.DeepEqual(got.Spans, want.Spans) {
			t.Fatalf("trial %d (%v %v partition %v): spans diverge from the oracle\ngot  %+v\nwant %+v",
				trial, pol, sched, sched.Partition, got.Spans, want.Spans)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%v %v): result diverges from the oracle\ngot  %+v\nwant %+v", trial, pol, sched, got, want)
		}
	}
}

// aggregatesEqual compares every aggregate field of two results bit for
// bit.
func aggregatesEqual(a, b *Result) bool {
	fa := []float64{a.Makespan, a.ComputeSeconds, a.CommSeconds, a.ExposedCommSeconds, a.DrainSeconds, a.BubbleSeconds, a.BubbleFraction}
	fb := []float64{b.Makespan, b.ComputeSeconds, b.CommSeconds, b.ExposedCommSeconds, b.DrainSeconds, b.BubbleSeconds, b.BubbleFraction}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Policy == b.Policy && a.MicroBatches == b.MicroBatches && a.Stages == b.Stages &&
		reflect.DeepEqual(a.LevelNames, b.LevelNames)
}

// Score's aggregates equal SimulatePipeline's bit for bit, and Score
// carries no spans or per-layer/per-lane statistics.
func TestScoreMatchesSimulatePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1818))
	for trial := 0; trial < 3000; trial++ {
		layers, pol, sched := randomCase(rng)
		got, err := Score(layers, pol, sched)
		if err != nil {
			t.Fatalf("trial %d: Score: %v", trial, err)
		}
		want, err := SimulatePipeline(layers, pol, sched)
		if err != nil {
			t.Fatalf("trial %d: SimulatePipeline: %v", trial, err)
		}
		if !aggregatesEqual(got, want) {
			t.Fatalf("trial %d (%v %v partition %v): Score %+v, SimulatePipeline %+v",
				trial, pol, sched, sched.Partition, *got, *want)
		}
		if got.Spans != nil || got.PerLayer != nil || got.PerResource != nil {
			t.Fatalf("trial %d: Score returned spans or per-layer/per-lane statistics", trial)
		}
	}
}

// vggLike is a 16-layer (VGG16-sized) flat layer list with every
// communication kind populated.
func vggLike() []Layer {
	rng := rand.New(rand.NewSource(16))
	layers := make([]Layer, 16)
	for i := range layers {
		layers[i] = Layer{FwdComp: rng.Float64(), BwdComp: rng.Float64(), AllGather: rng.Float64(),
			FwdHalo: rng.Float64(), ActReduce: rng.Float64(), GradReduce: rng.Float64(), BwdHalo: rng.Float64()}
	}
	layers[8].FwdXfer, layers[8].BwdXfer = 0.5, 0.5
	return layers
}

// A warmed Score allocates only its Result: every graph and scheduler
// buffer comes from the pool.
func TestScoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	layers := vggLike()
	sched := Schedule{Shape: OneFOneB, MicroBatches: 2, Stages: 2}
	if _, err := Score(layers, PolicyBackprop, sched); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Score(layers, PolicyBackprop, sched); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Score allocated %.1f times per call, want ≤ 4", allocs)
	}
}

// Concurrent scorers share the graph pool; each must see only its own
// graph.
func TestScoreConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type input struct {
		layers []Layer
		pol    Policy
		sched  Schedule
	}
	inputs := make([]input, 64)
	want := make([]*Result, len(inputs))
	for i := range inputs {
		l, p, s := randomCase(rng)
		inputs[i] = input{l, p, s}
		r, err := Score(l, p, s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := w; i < len(inputs); i += 8 {
					in := inputs[(i+rep)%len(inputs)]
					got, err := Score(in.layers, in.pol, in.sched)
					if err != nil || !aggregatesEqual(got, want[(i+rep)%len(inputs)]) {
						errs <- "concurrent Score diverged from the serial result"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSimulateRejectsNegativeResource(t *testing.T) {
	if _, err := Simulate([]Event{{Resource: -1, Duration: 1}}); err == nil {
		t.Fatal("a negative resource must error")
	}
}

func BenchmarkScore(b *testing.B) {
	layers := vggLike()
	sched := Schedule{Shape: OneFOneB, MicroBatches: 2, Stages: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Score(layers, PolicyBackprop, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatePipeline(b *testing.B) {
	layers := vggLike()
	sched := Schedule{Shape: OneFOneB, MicroBatches: 2, Stages: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulatePipeline(layers, PolicyBackprop, sched); err != nil {
			b.Fatal(err)
		}
	}
}
