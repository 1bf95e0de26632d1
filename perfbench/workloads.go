package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"dnnparallel"
)

// input is one distinct request of a workload: the scenario bytes the
// program receives, the endpoint (serve-mix only), and what its answer
// must be.
type input struct {
	path string // "/v1/plan" or "/v1/simulate"
	body []byte
	// canon is the index of the input whose answer this one must equal:
	// itself, or the canonical spelling a legacy-sugar respelling
	// canonicalizes onto. It always precedes the respelling in the list.
	canon int
	// status is the expected HTTP status: 200, or 422 for a scenario
	// whose search space has no feasible plan.
	status int
}

// workload is a seed-determined set of distinct inputs and one pass of
// the op sequence replayed over them.
type workload struct {
	name string
	// serve routes ops through the dnnserve handler on a loopback
	// listener; otherwise ops call the façade (DecodeScenario → Plan →
	// json.Marshal) directly.
	serve bool
	// tail is the percentile tail_ms reports (see BENCHMARK.json).
	tail   float64
	inputs []input
	seq    []int // one pass of the op sequence: indices into inputs
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-mix", "plan-hier"}

func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "serve-mix":
		w = serveMix(rng)
	case "plan-hier":
		w = planHier(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.name = name
	if err := w.validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}

// validate checks the generator's own invariants: every respelling
// canonicalizes onto the same bytes as its canonical input.
func (w *workload) validate() error {
	for i, in := range w.inputs {
		if in.canon == i {
			continue
		}
		a, err := canonical(w.inputs[in.canon].body)
		if err != nil {
			return err
		}
		b, err := canonical(in.body)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) || w.inputs[in.canon].path != in.path {
			return fmt.Errorf("input %d does not canonicalize onto input %d:\n%s\n%s", i, in.canon, a, b)
		}
	}
	return nil
}

func canonical(body []byte) ([]byte, error) {
	sc, err := dnnparallel.DecodeScenario(body)
	if err != nil {
		return nil, err
	}
	return sc.Canonical()
}

// field is one JSON object member; obj keeps the members in the given
// order, so a respelling can reorder them.
type field struct {
	k string
	v any
}

func obj(fs ...field) raw {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(f.k)
		v, err := json.Marshal(f.v)
		if err != nil {
			panic(err) // only literal generator values are marshaled
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// raw embeds an already-encoded JSON value.
type raw []byte

func (r raw) MarshalJSON() ([]byte, error) { return r, nil }

// jitter returns base scaled by a seeded factor in [1−f, 1+f], rounded
// to three significant digits so the scenario bytes stay short.
func jitter(rng *rand.Rand, base, f float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(base*(1+f*(2*rng.Float64()-1)), 'g', 3, 64), 64)
	return v
}

// zipfQuotas splits n ops over k popularity ranks with weight 1/(r+1),
// by largest remainder, giving every rank at least one op.
func zipfQuotas(k, n int) []int {
	w := make([]float64, k)
	total := 0.0
	for r := range w {
		w[r] = 1 / float64(r+1)
		total += w[r]
	}
	q := make([]int, k)
	rem := make([]float64, k)
	used := 0
	for r := range w {
		x := w[r] / total * float64(n-k)
		q[r] = 1 + int(x)
		rem[r] = x - math.Floor(x)
		used += q[r]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; used < n; i++ {
		q[order[i%k]]++
		used++
	}
	return q
}

func shuffle(rng *rand.Rand, seq []int) {
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
}

// serveMix builds the dnnserve request mix: 384 flat-machine /v1/plan
// keys with Zipf popularity (3× the default 128-entry cache), some of
// them also sent in legacy-sugar respellings, plus /v1/simulate keys
// (~10% of ops) and a few infeasible scenarios answered 422. Most keys
// are the paper's single-iteration search; a slice of them asks for the
// other search shapes — time-to-accuracy batch sweeps, timeline-scored
// micro-batch pipelines, and S=2 stage partitions — so their misses run
// those searches.
//
// Popularity rank r fixes the key's network, P, batch, mode and search
// shape, so the cost of hits and misses is the same for every seed; the
// seed jitters the machine and dataset size, picks the respelling, and
// orders the ops.
func serveMix(rng *rand.Rand) *workload {
	nets := []string{"alexnet", "vgg16", "resnet50", "onebyone"}
	procs := []int{16, 32, 64, 128, 256, 512}
	batches := []int{512, 1024, 2048, 4096}
	modes := []string{"auto", "uniform", "conv-batch", "conv-domain"}
	const planOps, simOps, badOps = 3600, 400, 40

	w := &workload{serve: true, tail: 0.9975}
	add := func(path string, status int, body raw) int {
		i := len(w.inputs)
		w.inputs = append(w.inputs, input{path: path, status: status, canon: i, body: body})
		return i
	}
	machine := func() raw {
		return obj(field{"alpha_seconds", jitter(rng, 2e-6, 0.1)}, field{"bandwidth_gbs", jitter(rng, 6, 0.1)})
	}
	type key struct {
		idx, alt int // input index of the canonical spelling and of a respelling (-1: none)
	}
	keys := make([]key, 384)
	for r := range keys {
		c, m := r%24, r/24
		net, p := nets[c%4], procs[c/4]
		b, mode := batches[m%4], modes[m/4]
		if b < p {
			b = p // keep every key feasible: Pc ≤ B on the pure-batch grid
		}
		mach := machine()
		ds := 1000000 + rng.Intn(400000)
		var shape []field
		switch {
		case m == 3 || m == 7:
			shape = []field{{"objective", "time-to-accuracy"}, {"batch_sizes", []int{b / 2, 2 * b}}}
		case m == 11 && net != "resnet50":
			shape = []field{{"timeline", true}, {"policy", "backprop"}, {"micro_batches", []int{1, 2, 4}}, {"schedule", "1f1b"}}
		case m == 15 && p <= 64 && net != "resnet50":
			shape = []field{{"timeline", true}, {"policy", "backprop"}, {"micro_batches", []int{1, 2}},
				{"pipeline", obj(field{"stages", 2})}}
		}
		fs := append([]field{{"network", net}, {"batch", b}, {"procs", p},
			{"dataset_n", ds}, {"machine", mach}, {"mode", mode}}, shape...)
		k := key{alt: -1, idx: add("/v1/plan", 200, obj(fs...))}
		if r%5 == 2 {
			// Legacy and default spellings Normalize folds away: a
			// padded, mixed-case network name, reordered members, an
			// explicit single stage, default-on bounds, the default
			// objective.
			fs := append([]field{
				{"mode", mode}, {"procs", p}, {"batch", b},
				{"network", " " + string(net[0]-32) + net[1:] + " "},
				{"machine", mach}, {"dataset_n", ds},
			}, shape...)
			// A key with its own search shape already sets the fields
			// the other two respellings would spell.
			switch c := rng.Intn(3); {
			case c == 1 || shape != nil:
				fs = append(fs, field{"search", obj(field{"bounds", true})})
			case c == 0:
				fs = append(fs, field{"pipeline_stages", 1})
			default:
				fs = append(fs, field{"objective", "iteration"})
			}
			k.alt = add("/v1/plan", 200, obj(fs...))
			w.inputs[k.alt].canon = k.idx
		}
		keys[r] = k
	}
	// Simulate keys: a pinned grid priced by the per-layer timeline.
	type simCase struct {
		net  string
		p, b int
		grid string
	}
	simCases := []simCase{
		{"alexnet", 64, 2048, "8x8"}, {"alexnet", 256, 2048, "16x16"}, {"alexnet", 512, 2048, "32x16"},
		{"vgg16", 64, 1024, "16x4"}, {"vgg16", 128, 1024, "32x4"}, {"resnet50", 64, 1024, "8x8"},
		{"resnet50", 128, 1024, "16x8"}, {"onebyone", 64, 1024, "4x16"},
	}
	policies := []string{"none", "backprop", "full"}
	var sims []int
	for i := 0; i < 24; i++ {
		sc := simCases[i%len(simCases)]
		sims = append(sims, add("/v1/simulate", 200, obj(
			field{"network", sc.net}, field{"batch", sc.b}, field{"procs", sc.p},
			field{"machine", machine()}, field{"mode", "auto"},
			field{"policy", policies[i/len(simCases)]}, field{"grid", sc.grid})))
	}
	// Infeasible keys: no grid fits the memory limit, so the answer is
	// 422 and nothing is cached.
	var bad []int
	for i := 0; i < 4; i++ {
		bad = append(bad, add("/v1/plan", 422, obj(
			field{"network", nets[i]}, field{"batch", 1024}, field{"procs", 64},
			field{"machine", machine()}, field{"mode", "auto"}, field{"memory_limit_words", 1000})))
	}

	for r, q := range zipfQuotas(len(keys), planOps) {
		k := keys[r]
		for j := 0; j < q; j++ {
			if k.alt >= 0 && j%2 == 1 {
				w.seq = append(w.seq, k.alt)
			} else {
				w.seq = append(w.seq, k.idx)
			}
		}
	}
	for r, q := range zipfQuotas(len(sims), simOps) {
		for j := 0; j < q; j++ {
			w.seq = append(w.seq, sims[r])
		}
	}
	for i := 0; i < badOps; i++ {
		w.seq = append(w.seq, bad[i%len(bad)])
	}
	shuffle(rng, w.seq)
	return w
}

// levels renders an explicit innermost-first topology level list.
func levels(lv ...raw) raw {
	b, _ := json.Marshal(lv)
	return obj(field{"levels", raw(b)})
}

func level(name string, alpha, gbs float64, group int) raw {
	fs := []field{{"name", name}, {"alpha_seconds", alpha}, {"bandwidth_gbs", gbs}}
	if group > 0 {
		fs = append(fs, field{"group_ranks", group})
	}
	return obj(fs...)
}

// planHier builds the hierarchical façade workload: one input per
// (network, P, topology shape) class — 2-level explicit levels, the
// 2-level nodes/ranks_per_node sugar, and 3-level node/rack/spine — with
// ranks per node, rack size and batch fixed by the class, so every seed
// has the same search shapes. The seed jitters the link constants and
// the dataset size and picks the placement spelling; every class has
// two such variants. P stops at 128: the P=256 searches allocate
// 7–11 MB each, and their speed swung with neighbours' memory traffic
// far more than the rest. Each pass plans every input three times and
// the P=64 inputs six times, in a seeded order: op costs cluster by P,
// and the extra weight puts the median op inside the middle cluster
// rather than in the gap between two clusters, where p50_ms would jump
// with noise; three copies give the 95th percentile ten ops beyond it.
func planHier(rng *rand.Rand) *workload {
	type netCase struct {
		name    string
		batches []int
	}
	nets := []netCase{{"alexnet", []int{1024, 2048}}, {"vgg16", []int{512, 1024}}, {"resnet50", []int{512, 1024}}}
	procs := []int{32, 64, 128}
	rpns := map[int][]int{32: {4, 8}, 64: {4, 8}, 128: {8, 16}}
	w := &workload{tail: 0.95}
	for _, nc := range nets {
		for _, p := range procs {
			for v := 0; v < 6; v++ {
				shape := v % 3
				rpn := rpns[p][shape%2]
				b := nc.batches[(p/64+shape)%2]
				var topo raw
				switch shape {
				case 0:
					topo = levels(
						level("node", jitter(rng, 5e-7, 0.1), jitter(rng, 60, 0.1), rpn),
						level("cluster", jitter(rng, 2e-6, 0.1), jitter(rng, 6, 0.1), 0))
				case 1:
					topo = obj(field{"nodes", p / rpn}, field{"ranks_per_node", rpn},
						field{"inter", obj(field{"bandwidth_gbs", jitter(rng, 6, 0.1)})})
				default:
					rack := rpn * []int{4, 8}[(p/64)%2]
					topo = levels(
						level("node", jitter(rng, 5e-7, 0.1), jitter(rng, 60, 0.1), rpn),
						level("rack", jitter(rng, 1e-6, 0.1), jitter(rng, 12, 0.1), rack),
						level("spine", jitter(rng, 2e-6, 0.1), jitter(rng, 6, 0.1), 0))
				}
				fs := []field{{"network", nc.name}, {"batch", b}, {"procs", p},
					{"dataset_n", 1000000 + rng.Intn(400000)}, {"topology", topo}, {"mode", "auto"}}
				// Both placements are searched either way; the explicit
				// list exercises the placement normalization.
				if rng.Intn(3) == 0 {
					fs = append(fs, field{"placements", []string{"col-major", "row-major"}})
				}
				i := len(w.inputs)
				w.inputs = append(w.inputs, input{path: "/v1/plan", status: 200, canon: i, body: obj(fs...)})
				for k := 0; k < 3 || (p == 64 && k < 6); k++ {
					w.seq = append(w.seq, i)
				}
			}
		}
	}
	shuffle(rng, w.seq)
	return w
}
