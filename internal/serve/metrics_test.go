package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dnnparallel"
	"dnnparallel/internal/report"
)

// metricValue extracts the sample value of the series whose line starts
// with prefix (name + label block) from an exposition body; -1 if the
// series is absent.
func metricValue(text, prefix string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// sumSeries sums every sample of a family across its label tuples,
// filtered to lines containing each needle (e.g. a path label).
func sumSeries(text, name string, needles ...string) float64 {
	var sum float64
line:
	for _, l := range strings.Split(text, "\n") {
		if !strings.HasPrefix(l, name+"{") && !strings.HasPrefix(l, name+" ") {
			continue
		}
		for _, n := range needles {
			if !strings.Contains(l, n) {
				continue line
			}
		}
		fields := strings.Fields(l)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sum += v
	}
	return sum
}

func getMetrics(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	return buf.String()
}

// TestMetricsEndpoint: after a known request mix, /metrics reports the
// exact per-endpoint counts, latency histogram totals, and cache
// counters, in valid exposition format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := scenarioJSON(t, dnnparallel.DefaultScenario())
	post(t, ts.URL+"/v1/plan", body) // miss
	post(t, ts.URL+"/v1/plan", body) // hit
	post(t, ts.URL+"/v1/plan", []byte(`{broken`))

	text := getMetrics(t, ts.URL)
	checks := []struct {
		series string
		want   float64
	}{
		{`dnnserve_requests_total{path="/v1/plan",status="200"}`, 2},
		{`dnnserve_requests_total{path="/v1/plan",status="400"}`, 1},
		{`dnnserve_request_seconds_count{path="/v1/plan"}`, 3},
		{`dnnserve_request_seconds_bucket{path="/v1/plan",le="+Inf"}`, 3},
		{`dnnserve_cache_hits_total`, 1},
		{`dnnserve_cache_misses_total`, 1},
		{`dnnserve_cache_evictions_total`, 0},
		{`dnnserve_cache_entries`, 1},
		{`dnnserve_cache_capacity`, float64(DefaultCacheSize)},
		// The scrape observes itself mid-flight: the middleware increments
		// the gauge before the exposition renders.
		{`dnnserve_inflight_requests`, 1},
	}
	for _, c := range checks {
		if got := metricValue(text, c.series); got != c.want {
			t.Errorf("%s = %g, want %g", c.series, got, c.want)
		}
	}
	if sum := metricValue(text, `dnnserve_request_seconds_sum{path="/v1/plan"}`); sum <= 0 {
		t.Errorf("latency sum = %g, want > 0", sum)
	}
	// Unknown paths fold into one bounded label value.
	resp, err := http.Get(ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text = getMetrics(t, ts.URL)
	if got := sumSeries(text, "dnnserve_requests_total", `path="other"`); got != 1 {
		t.Errorf(`requests_total{path="other"} = %g, want 1`, got)
	}

	// /metrics itself rejects non-GET.
	respPost, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	respPost.Body.Close()
	if respPost.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", respPost.StatusCode)
	}
}

// TestSimulateTraceEndpoint: ?trace=1 answers with Chrome trace-event
// JSON (not the summary envelope), is cached separately from the plain
// simulate answer, and still carries the JSON content type.
func TestSimulateTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := scenarioJSON(t, dnnparallel.New("alexnet", 2048, 512, dnnparallel.WithGrid(8, 64)))

	resp, data := post(t, ts.URL+"/v1/simulate?trace=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first trace request X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if !json.Valid(data) {
		t.Fatal("trace response is not valid JSON")
	}
	var tf report.TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace response is not a TraceFile: %v", err)
	}
	nX := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			nX++
		}
	}
	if nX == 0 {
		t.Error("trace has no complete events")
	}

	resp2, data2 := post(t, ts.URL+"/v1/simulate?trace=1", body)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat trace request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data, data2) {
		t.Error("cached trace differs from the original")
	}

	// The summary variant of the same scenario is a distinct cache entry.
	resp3, data3 := post(t, ts.URL+"/v1/simulate", body)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Error("plain simulate was served the trace entry")
	}
	var sum dnnparallel.SimResult
	if err := json.Unmarshal(data3, &sum); err != nil {
		t.Fatalf("plain simulate answer no longer decodes: %v", err)
	}
}

// TestMetricsLaneLabels: simulating a three-level scenario exposes the
// per-lane busy-time series labeled by the topology's level names
// (net-node, net-rack, net-spine) rather than the fixed intra/inter
// pair, the flat network lane stays absent, and a cache hit does not
// re-observe (the schedule was not rebuilt).
func TestMetricsLaneLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := scenarioJSON(t, dnnparallel.New("alexnet", 2048, 512,
		dnnparallel.WithGrid(8, 64),
		dnnparallel.WithLevels(
			dnnparallel.LevelSpec{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
			dnnparallel.LevelSpec{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
			dnnparallel.LevelSpec{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
		)))
	if resp, data := post(t, ts.URL+"/v1/simulate", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, data)
	}

	text := getMetrics(t, ts.URL)
	for _, lane := range []string{"compute", "net-node", "net-rack", "net-spine"} {
		series := fmt.Sprintf(`dnnserve_sim_lane_busy_seconds_count{lane=%q}`, lane)
		if got := metricValue(text, series); got != 1 {
			t.Errorf("%s = %g, want 1", series, got)
		}
		if sum := metricValue(text, fmt.Sprintf(`dnnserve_sim_lane_busy_seconds_sum{lane=%q}`, lane)); sum <= 0 {
			t.Errorf("lane %q busy sum = %g, want > 0", lane, sum)
		}
	}
	if got := sumSeries(text, "dnnserve_sim_lane_busy_seconds_count", `lane="network"`); got != 0 {
		t.Errorf("flat network lane observed %g times on a leveled schedule, want 0", got)
	}

	// A cache hit answers from bytes; no new schedule, no new samples.
	post(t, ts.URL+"/v1/simulate", body)
	text = getMetrics(t, ts.URL)
	if got := metricValue(text, `dnnserve_sim_lane_busy_seconds_count{lane="compute"}`); got != 1 {
		t.Errorf("compute lane count after cache hit = %g, want 1", got)
	}
}

// TestMetricsConcurrentMonotone is the acceptance criterion's -race
// load test: clients hammer /v1/plan while another client polls
// /metrics. Every sampled exposition must be internally consistent
// (+Inf bucket == count) and the request counter must never go
// backwards; the final totals must equal the traffic exactly.
func TestMetricsConcurrentMonotone(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8})
	bodies := [][]byte{
		scenarioJSON(t, dnnparallel.New("alexnet", 2048, 512)),
		scenarioJSON(t, dnnparallel.New("alexnet", 1024, 512)),
	}

	const workers = 6
	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker+64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, body := post(t, ts.URL+"/v1/plan", bodies[(w+i)%len(bodies)])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("plan status %d: %s", resp.StatusCode, body)
				}
			}
		}(w)
	}
	// The sampler runs concurrently with the writers.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		prev := -1.0
		for i := 0; i < 20; i++ {
			text := getMetrics(t, ts.URL)
			total := sumSeries(text, "dnnserve_requests_total", `path="/v1/plan"`)
			if total < prev {
				errs <- fmt.Errorf("requests_total went backwards: %g after %g", total, prev)
			}
			prev = total
			count := metricValue(text, `dnnserve_request_seconds_count{path="/v1/plan"}`)
			inf := metricValue(text, `dnnserve_request_seconds_bucket{path="/v1/plan",le="+Inf"}`)
			if count >= 0 && inf != count {
				errs <- fmt.Errorf("histogram inconsistent: +Inf bucket %g ≠ count %g", inf, count)
			}
		}
	}()
	wg.Wait()
	<-samplerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	text := getMetrics(t, ts.URL)
	const total = workers * perWorker
	if got := sumSeries(text, "dnnserve_requests_total", `path="/v1/plan"`); got != total {
		t.Errorf("requests_total for /v1/plan = %g, want %d", got, total)
	}
	if got := metricValue(text, `dnnserve_request_seconds_count{path="/v1/plan"}`); got != total {
		t.Errorf("latency count = %g, want %d", got, total)
	}
	hits := metricValue(text, "dnnserve_cache_hits_total")
	misses := metricValue(text, "dnnserve_cache_misses_total")
	// Concurrent identical misses coalesce onto one in-flight search and
	// are counted apart from hits and misses (see CacheStats), so the
	// identity the server guarantees is hits + misses + coalesced.
	coalesced := metricValue(text, "dnnserve_cache_coalesced_total")
	if hits+misses+coalesced != total {
		t.Errorf("cache hits %g + misses %g + coalesced %g ≠ %d requests", hits, misses, coalesced, total)
	}
	if misses < float64(len(bodies)) {
		t.Errorf("misses = %g, want ≥ %d (each distinct scenario misses once)", misses, len(bodies))
	}
	// Only the scrape itself is in flight once the traffic has drained.
	if got := metricValue(text, "dnnserve_inflight_requests"); got != 1 {
		t.Errorf("inflight = %g after traffic drained, want 1 (the scrape itself)", got)
	}
}

// TestRequestLogging: each request emits one structured line carrying
// the request ID, endpoint, status, duration, canonical-scenario hash,
// and cache outcome.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	h := s.Handler()
	body := scenarioJSON(t, dnnparallel.DefaultScenario())
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	hashRe := regexp.MustCompile(`scenario=[0-9a-f]{16}\b`)
	for i, want := range []string{"cache=miss", "cache=hit"} {
		l := lines[i]
		for _, needle := range []string{
			fmt.Sprintf("req_id=%d", i+1), "method=POST", "path=/v1/plan", "status=200", "duration=", want,
		} {
			if !strings.Contains(l, needle) {
				t.Errorf("log line %d missing %q: %s", i, needle, l)
			}
		}
		if !hashRe.MatchString(l) {
			t.Errorf("log line %d has no 16-hex scenario hash: %s", i, l)
		}
	}
	// Both lines correlate: same scenario, same hash.
	if h0, h1 := hashRe.FindString(lines[0]), hashRe.FindString(lines[1]); h0 != h1 {
		t.Errorf("scenario hash differs across identical requests: %s vs %s", h0, h1)
	}
}
