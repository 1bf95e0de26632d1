package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnnparallel"
	"dnnparallel/internal/obs"
)

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func scenarioJSON(t testing.TB, sc dnnparallel.Scenario) []byte {
	t.Helper()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPlanEndpoint: a valid scenario answers 200 with the same best plan
// the façade computes directly, and a repeat of the same question —
// differently spelled — is served from the cache byte-identically.
func TestPlanEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := dnnparallel.New("alexnet", 2048, 512)
	want, err := dnnparallel.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/plan", scenarioJSON(t, sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var res dnnparallel.PlanResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if res.Best.Grid != want.Best.Grid || res.SpeedupTotal != want.SpeedupTotal {
		t.Fatalf("served plan %s/%g differs from façade %s/%g",
			res.Best.Grid, res.SpeedupTotal, want.Best.Grid, want.SpeedupTotal)
	}

	// Same question, different spelling: canonicalization must hit.
	alt := sc
	alt.Network = "ALEXNET"
	resp2, body2 := post(t, ts.URL+"/v1/plan", scenarioJSON(t, alt))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("respelled request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit served different bytes")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestPlanTTACacheRespell: a time-to-accuracy scenario whose convergence
// block is spelled out in full — preset named in the wrong case, every
// explicit parameter equal to the preset it came from — asks the same
// question as the bare spelling, so it must hit the bare spelling's
// cache entry byte-identically.
func TestPlanTTACacheRespell(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := dnnparallel.New("alexnet", 512, 512,
		dnnparallel.WithBatchSizes(256, 512, 1024, 2048))

	resp, body := post(t, ts.URL+"/v1/plan", scenarioJSON(t, sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res dnnparallel.PlanResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if res.Best.Batch == 0 || res.Best.TimeToAccuracySeconds == 0 {
		t.Fatalf("served tta plan misses campaign fields: %+v", res.Best)
	}

	alt := sc
	alt.Network = "ALEXNET"
	alt.Convergence = &dnnparallel.ConvergenceSpec{
		Preset:    "AlexNet",
		StepsAtB1: 1.08e8, CriticalB: 2048, Exponent: 2,
	}
	resp2, body2 := post(t, ts.URL+"/v1/plan", scenarioJSON(t, alt))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("respelled convergence block X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit served different bytes")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestSimulateEndpoint mirrors the plan test for /v1/simulate, including
// the plan-vs-simulate cache-key separation for an identical spec.
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := dnnparallel.New("alexnet", 2048, 512, dnnparallel.WithGrid(8, 64))
	body := scenarioJSON(t, sc)

	resp, data := post(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res dnnparallel.SimResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	want, err := dnnparallel.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != want.Makespan || len(res.PerLayer) != len(want.PerLayer) {
		t.Fatalf("served sim %+v differs from façade %+v", res, want)
	}

	// The same canonical scenario on the other endpoint must not collide.
	respPlan, dataPlan := post(t, ts.URL+"/v1/plan", body)
	if respPlan.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", respPlan.StatusCode, dataPlan)
	}
	if respPlan.Header.Get("X-Cache") != "miss" {
		t.Error("plan answer was served from the simulate cache entry")
	}
}

// TestErrorMapping: malformed → 400 with the offending field, infeasible
// → 422, wrong method → 405 — and the server survives all of them (the
// regression for "a malformed HTTP request can never crash dnnserve").
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		field  string
	}{
		{"broken json", `{broken`, http.StatusBadRequest, "json"},
		{"unknown field", `{"network":"alexnet","batch":2048,"procs":512,"modee":1}`, http.StatusBadRequest, "json"},
		{"unknown network", `{"network":"lenet","batch":2048,"procs":512,"mode":"auto"}`, http.StatusBadRequest, "network"},
		{"zero batch", `{"network":"alexnet","batch":0,"procs":512,"mode":"auto"}`, http.StatusBadRequest, "batch"},
		{"bad mode", `{"network":"alexnet","batch":2048,"procs":512,"mode":"fancy"}`, http.StatusBadRequest, "json"},
		{"infeasible", `{"network":"alexnet","batch":256,"procs":512,"mode":"conv-batch"}`, http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/plan", []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var eb struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if eb.Error == "" {
				t.Error("error body is empty")
			}
			if tc.field != "" && eb.Field != tc.field {
				t.Errorf("field = %q, want %q", eb.Field, tc.field)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}

	// The server is still alive after every bad request.
	resp2, body2 := post(t, ts.URL+"/v1/plan", scenarioJSON(t, dnnparallel.DefaultScenario()))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after bad requests: %d %s", resp2.StatusCode, body2)
	}
}

// An oversized search (an exhaustive 8-stage VGG16 request, ~386k
// candidate plans) is a bad request answered from validation, not a
// search that ties up the planner.
func TestCandidateBudgetRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"network":"vgg16","batch":8192,"procs":4096,"mode":"auto","timeline":true,"policy":"backprop","micro_batches":[1,2,4,8,16,32],"schedule":"1f1b","pipeline":{"stages":8,"max_partitions":6435}}`
	start := time.Now()
	resp, out := post(t, ts.URL+"/v1/plan", []byte(body))
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v", d)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, out)
	}
	var eb struct {
		Field string `json:"field"`
	}
	if err := json.Unmarshal(out, &eb); err != nil || eb.Field != "candidates" {
		t.Fatalf("error body %s, want field candidates", out)
	}
}

// TestHugeProcsRejected: a process count above scenario.MaxProcs is a
// 400 naming procs, answered without starting a search.
func TestHugeProcsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	resp, out := post(t, ts.URL+"/v1/plan", []byte(`{"network":"alexnet","batch":1024,"procs":99999999999973}`))
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v", d)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, out)
	}
	var eb struct {
		Field string `json:"field"`
	}
	if err := json.Unmarshal(out, &eb); err != nil || eb.Field != "procs" {
		t.Fatalf("error body %s, want field procs", out)
	}
}

// TestHealthz checks liveness and that the cache counters flow through.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/plan", scenarioJSON(t, dnnparallel.DefaultScenario()))
	post(t, ts.URL+"/v1/plan", scenarioJSON(t, dnnparallel.DefaultScenario()))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string     `json:"status"`
		Cache  CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Cache.Hits != 1 || h.Cache.Misses != 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestConcurrentClients hammers /v1/plan and /v1/simulate from many
// goroutines over a mix of scenarios — the acceptance criterion's
// `go test -race` concurrent-client load. Every response must decode to
// the correct best grid for its scenario.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	type q struct {
		body []byte
		want string // expected best grid
	}
	var qs []q
	for _, batch := range []int{2048, 1024, 512} {
		sc := dnnparallel.New("alexnet", batch, 512)
		res, err := dnnparallel.Plan(sc)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{scenarioJSON(t, sc), res.Best.Grid})
	}
	simBody := scenarioJSON(t, dnnparallel.New("alexnet", 2048, 512, dnnparallel.WithGrid(8, 64)))

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if (w+i)%4 == 3 {
					resp, body := post(t, ts.URL+"/v1/simulate", simBody)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("simulate status %d: %s", resp.StatusCode, body)
					}
					continue
				}
				query := qs[(w+i)%len(qs)]
				resp, body := post(t, ts.URL+"/v1/plan", query.body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("plan status %d: %s", resp.StatusCode, body)
					continue
				}
				var res dnnparallel.PlanResult
				if err := json.Unmarshal(body, &res); err != nil {
					errs <- err
					continue
				}
				if res.Best.Grid != query.want {
					errs <- fmt.Errorf("got best grid %s, want %s", res.Best.Grid, query.want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanStagedCacheRespell: the two spellings of a staged question —
// the legacy pipeline_stages sugar and the pipeline block — share one
// cache entry, and the served plan carries the stage-partitioned fields
// (stage count, cuts, per-stage table).
func TestPlanStagedCacheRespell(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	legacy := dnnparallel.New("alexnet", 2048, 16,
		dnnparallel.WithTimeline(dnnparallel.PolicyBackprop),
		dnnparallel.WithMicroBatches(dnnparallel.ScheduleGPipe, 1, 2),
		dnnparallel.WithPipelineStages(2))

	resp, body := post(t, ts.URL+"/v1/plan", scenarioJSON(t, legacy))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first staged request X-Cache = %q, want miss", got)
	}
	var res dnnparallel.PlanResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Best.Stages != 2 || len(res.Best.PerStage) != 2 || len(res.Best.Partition) != 1 {
		t.Fatalf("served staged plan lacks the stage fields: S=%d cuts=%v rows=%d",
			res.Best.Stages, res.Best.Partition, len(res.Best.PerStage))
	}
	if res.Best.PerStage[1].RankOffset != 8 {
		t.Errorf("stage 1 rank offset = %d, want 8 (per-stage grids of P/S=8 ranks)",
			res.Best.PerStage[1].RankOffset)
	}

	block := dnnparallel.New("alexnet", 2048, 16,
		dnnparallel.WithTimeline(dnnparallel.PolicyBackprop),
		dnnparallel.WithMicroBatches(dnnparallel.ScheduleGPipe, 1, 2),
		dnnparallel.WithStages(2))
	resp2, body2 := post(t, ts.URL+"/v1/plan", scenarioJSON(t, block))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("pipeline-block respelling X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("respelled staged request served different bytes")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1 (one canonical staged question)", st.Entries)
	}
}

// TestLRUEviction: the cache respects its capacity and evicts the least
// recently used entry.
func TestLRUEviction(t *testing.T) {
	c := newLRU(2, &obs.Counter{}, &obs.Counter{}, &obs.Counter{}, &obs.Gauge{})
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	if st := c.stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st := c.stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st := c.stats(); st.Capacity != 2 {
		t.Errorf("capacity = %d, want 2", st.Capacity)
	}
}

// TestCacheDisabled: a negative capacity turns caching off entirely.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	body := scenarioJSON(t, dnnparallel.DefaultScenario())
	for i := 0; i < 2; i++ {
		resp, data := post(t, ts.URL+"/v1/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Cache"); got != "bypass" {
			t.Errorf("request %d X-Cache = %q, want bypass (caching disabled)", i, got)
		}
	}
	if st := s.Stats(); st != (CacheStats{}) {
		t.Errorf("disabled cache reports stats %+v", st)
	}
}

// BenchmarkServePlanCacheHit measures the steady-state throughput of a
// cached /v1/plan answer — the per-request cost of the service once the
// question has been seen.
func BenchmarkServePlanCacheHit(b *testing.B) {
	s := New(Config{})
	body := scenarioJSON(b, dnnparallel.DefaultScenario())
	h := s.Handler()
	warm := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	h.ServeHTTP(httptest.NewRecorder(), warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.Hits < int64(b.N) {
		b.Fatalf("expected ≥ %d cache hits, got %d", b.N, st.Hits)
	}
}

// BenchmarkServePlanCacheMiss measures the same request when every
// question is new (distinct dataset size → distinct canonical key):
// the full planner search per request. The hit/miss ratio of these two
// benchmarks is the measured cache speedup.
func BenchmarkServePlanCacheMiss(b *testing.B) {
	s := New(Config{CacheSize: 4}) // far smaller than b.N: every request misses
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := dnnparallel.DefaultScenario()
		sc.DatasetN = 1_000_000 + i + 1
		body := scenarioJSON(b, sc)
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != "miss" {
			b.Fatalf("X-Cache = %q, want miss", got)
		}
	}
}

// TestCacheSpeedup is the measured-cache-speedup acceptance check in
// test form: a cache hit must be at least twice as cheap as the planner
// run it memoizes (the two benchmarks above measure the real ratio).
// Misses and hits are timed one request at a time, interleaved, and each
// side's time is the fastest of its repetitions, as perfbench times its
// ops: a neighbour on a shared machine only ever adds time, so the
// fastest repetition is what the request itself costs, while one
// wall-clock loop per side would fold scheduler noise into the ratio.
func TestCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	h := New(Config{}).Handler()
	serveOnce := func(payload []byte, want string) time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != want {
			t.Fatalf("X-Cache = %q, want %q", got, want)
		}
		return d
	}

	body := scenarioJSON(t, dnnparallel.DefaultScenario())
	serveOnce(body, "miss") // fills the entry every hit reads
	const reps = 20         // misses stay far below the cache's capacity
	miss, hit := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		sc := dnnparallel.DefaultScenario()
		sc.DatasetN = 2_000_000 + i
		fresh := scenarioJSON(t, sc)
		miss = min(miss, serveOnce(fresh, "miss"))
		hit = min(hit, serveOnce(body, "hit"))
	}
	if 2*hit >= miss {
		t.Errorf("cache hit not measurably faster: fastest of %d hits %v, fastest of %d misses %v", reps, hit, reps, miss)
	}
	t.Logf("measured cache speedup: %.1fx (fastest miss %v, fastest hit %v, %d interleaved repetitions)",
		float64(miss)/float64(hit), miss, hit, reps)
}

// TestSingleflightCoalescing: concurrent identical cache misses run ONE
// planner call. The leader is held in flight by the testPlanDelay hook
// until every other request has entered the handler; the followers then
// wait on the leader's flight and answer with X-Cache: coalesced and
// byte-identical bodies, counted by dnnserve_cache_coalesced_total.
// Run under -race this also proves the flight fields publish safely.
func TestSingleflightCoalescing(t *testing.T) {
	var plannerCalls atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	testPlanDelay = func() {
		plannerCalls.Add(1)
		close(leaderIn)
		<-release
	}
	defer func() { testPlanDelay = nil }()

	s, ts := newTestServer(t, Config{})
	body := scenarioJSON(t, dnnparallel.New("alexnet", 2048, 512))

	const clients = 8
	type reply struct {
		xcache string
		body   []byte
	}
	replies := make(chan reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, ts.URL+"/v1/plan", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
			}
			replies <- reply{resp.Header.Get("X-Cache"), data}
		}()
	}

	// Hold the leader until every request is inside the handler, then a
	// beat longer so the followers reach the flight-join, then let the
	// one planner call finish.
	<-leaderIn
	for s.inflight.Value() < clients {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(replies)

	if n := plannerCalls.Load(); n != 1 {
		t.Fatalf("planner ran %d times for %d identical concurrent requests, want 1", n, clients)
	}
	var miss, coalesced, hit int
	var first []byte
	for r := range replies {
		switch r.xcache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			hit++ // a straggler that arrived after the flight resolved
		default:
			t.Errorf("unexpected X-Cache %q", r.xcache)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("coalesced responses served different bytes")
		}
	}
	if miss != 1 {
		t.Errorf("got %d misses, want exactly 1 (the flight leader)", miss)
	}
	if coalesced == 0 {
		t.Error("no request was coalesced onto the in-flight computation")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Coalesced != int64(coalesced) {
		t.Errorf("cache stats = %+v, want 1 miss and %d coalesced", st, coalesced)
	}
	t.Logf("%d clients: 1 miss, %d coalesced, %d late hits", clients, coalesced, hit)
}
