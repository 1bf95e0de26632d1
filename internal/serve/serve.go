// Package serve implements the dnnserve HTTP planning service: the
// public dnnparallel façade behind four endpoints —
//
//	POST /v1/plan              body: Scenario JSON → PlanResult JSON
//	POST /v1/simulate[?trace=1] body: Scenario JSON → SimResult JSON
//	                           (?trace=1: Chrome trace-event JSON of the
//	                           simulated schedule, loadable in Perfetto)
//	GET  /healthz              liveness + cache statistics
//	GET  /metrics              Prometheus text exposition (internal/obs)
//
// Requests are validated eagerly by the façade: a malformed scenario
// maps to 400 with a structured error body (never a crash — the façade
// recovers nothing because nothing can panic past its validation), an
// infeasible one to 422. Plan responses are cached in an LRU keyed on
// the canonicalized scenario, so two clients asking the same question
// differently spelled share one planner run; identical misses that are
// concurrently in flight are coalesced onto a single planner call
// (singleflight — the followers wait for the leader's bytes and answer
// with X-Cache: coalesced). The handler is safe for concurrent use
// (exercised under -race in serve_test.go).
//
// Every request flows through an observability middleware: an in-flight
// gauge, per-endpoint request counters by status, per-endpoint latency
// histograms (p50/p99 derivable from the cumulative buckets), and a
// structured slog line carrying the request ID, the canonical-scenario
// hash, the duration, and the cache outcome (hit|miss|coalesced|
// bypass) — the
// instrumentation substrate the ROADMAP's scale-out work will report
// against.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnnparallel"
	"dnnparallel/internal/obs"
	"dnnparallel/internal/report"
	"dnnparallel/internal/timeline"
)

// DefaultCacheSize bounds the plan cache when Config.CacheSize is 0.
const DefaultCacheSize = 128

// Config configures a Server.
type Config struct {
	// CacheSize is the maximum number of cached plan/simulate responses
	// (0 = DefaultCacheSize, < 0 = caching disabled).
	CacheSize int
	// Logger receives one structured line per request (request ID,
	// endpoint, status, duration, canonical-scenario hash, cache
	// outcome). nil disables request logging.
	Logger *slog.Logger
	// Workers is the planner worker count applied to requests whose
	// scenario leaves search.workers unset (0 keeps the planner default,
	// GOMAXPROCS). It never changes any response body — the search result
	// is identical for every worker count — so it is deliberately NOT
	// part of the cache key.
	Workers int
}

// Server is the planning service. Create with New; it is safe for
// concurrent use.
type Server struct {
	cache   *lru
	handler http.Handler
	log     *slog.Logger
	workers int

	// flights dedupes identical in-flight cache misses: the first
	// request for a key becomes the leader and runs the planner; later
	// requests for the same key wait on the flight's done channel and
	// serve the leader's bytes (X-Cache: coalesced).
	flightMu sync.Mutex
	flights  map[string]*flight

	metrics  *obs.Registry
	requests *obs.CounterVec   // dnnserve_requests_total{path,status}
	latency  *obs.HistogramVec // dnnserve_request_seconds{path}
	laneBusy *obs.HistogramVec // dnnserve_sim_lane_busy_seconds{lane}
	inflight *obs.Gauge        // dnnserve_inflight_requests
	reqID    atomic.Int64

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge
	cacheCapacity  *obs.Gauge
	cacheCoalesced *obs.Counter
	searchSeconds  *obs.Histogram // dnnserve_plan_search_seconds
}

// flight is one in-flight computation a set of identical requests
// shares. The leader fills data/err, then closes done; followers read
// both only after done is closed (the close is the happens-before
// edge), so the fields need no lock.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// testPlanDelay, when non-nil, runs inside the miss path after the
// flight is registered and before the façade call — a test hook that
// lets the singleflight race test hold a leader in flight while
// followers pile up. Never set outside tests.
var testPlanDelay func()

// New builds a Server.
func New(cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	s := &Server{log: cfg.Logger, workers: cfg.Workers, flights: make(map[string]*flight)}

	reg := obs.NewRegistry()
	s.metrics = reg
	s.requests = reg.NewCounterVec("dnnserve_requests_total",
		"HTTP requests served, by endpoint and status code.", "path", "status")
	s.latency = reg.NewHistogramVec("dnnserve_request_seconds",
		"HTTP request latency in seconds, by endpoint.", nil, "path")
	s.laneBusy = reg.NewHistogramVec("dnnserve_sim_lane_busy_seconds",
		"Busy seconds per schedule lane of each simulated (uncached) schedule, "+
			"labeled by the lane's display name: compute, network, or one "+
			"net-<level> lane per topology link level.", nil, "lane")
	s.inflight = reg.NewGauge("dnnserve_inflight_requests",
		"Requests currently being served.")
	s.cacheHits = reg.NewCounter("dnnserve_cache_hits_total",
		"Plan-cache lookups answered from the cache.")
	s.cacheMisses = reg.NewCounter("dnnserve_cache_misses_total",
		"Plan-cache lookups that ran the planner.")
	s.cacheEvictions = reg.NewCounter("dnnserve_cache_evictions_total",
		"Plan-cache entries evicted by the LRU capacity bound.")
	s.cacheEntries = reg.NewGauge("dnnserve_cache_entries",
		"Plan-cache entries currently resident.")
	s.cacheCapacity = reg.NewGauge("dnnserve_cache_capacity",
		"Plan-cache capacity in entries (0 = caching disabled).")
	s.cacheCoalesced = reg.NewCounter("dnnserve_cache_coalesced_total",
		"Cache misses coalesced onto an identical in-flight computation "+
			"(singleflight): requests answered from another request's "+
			"planner run without running the planner themselves.")
	s.searchSeconds = reg.NewHistogram("dnnserve_plan_search_seconds",
		"Planner search wall time per uncached /v1/plan request "+
			"(SearchStats.WallSeconds; cache hits and coalesced requests "+
			"run no search and are not observed).", nil)

	if size > 0 {
		s.cache = newLRU(size, s.cacheHits, s.cacheMisses, s.cacheEvictions, s.cacheEntries)
		s.cacheCapacity.Set(int64(size))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handle(func(r *http.Request, sc dnnparallel.Scenario) (any, error) {
		res, err := dnnparallel.Plan(sc)
		if err != nil {
			return nil, err
		}
		if res.Stats != nil {
			s.searchSeconds.Observe(res.Stats.WallSeconds)
		}
		return res, nil
	}))
	mux.HandleFunc("/v1/simulate", s.handle(func(r *http.Request, sc dnnparallel.Scenario) (any, error) {
		res, err := dnnparallel.Simulate(sc)
		if err != nil {
			return nil, err
		}
		s.observeLanes(res.Raw)
		if !traceRequested(r) {
			return res, nil
		}
		// ?trace=1: the response is the schedule itself as Chrome
		// trace-event JSON rather than the summary envelope.
		data, err := report.ChromeTrace(res.Raw)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(data), nil
	}))
	mux.HandleFunc("/healthz", s.healthz)
	mux.Handle("/metrics", s.metrics.Handler())
	s.handler = s.middleware(mux)
	return s
}

// Handler returns the service's HTTP handler (middleware included).
func (s *Server) Handler() http.Handler { return s.handler }

// observeLanes records one observation per schedule lane of a simulated
// result: the lane's total busy seconds, labeled by the same display
// name the Gantt legend and Chrome trace use — compute, network, or the
// per-level net-<level> lanes of a hierarchical topology. Cache hits
// skip it (no schedule was built), so the series counts planner work
// actually done.
func (s *Server) observeLanes(res *timeline.Result) {
	if res == nil {
		return
	}
	busy := make(map[string]float64)
	for _, sp := range res.Spans {
		busy[res.LaneName(sp.Resource.Base())] += sp.End - sp.Start
	}
	for lane, seconds := range busy {
		s.laneBusy.With(lane).Observe(seconds)
	}
}

// traceRequested reports whether the request asked for the Chrome-trace
// response variant.
func traceRequested(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "", "0", "false":
		return false
	}
	return true
}

// metricPath folds a request path onto the known endpoint set, so a
// hostile client cannot explode the label cardinality of the
// per-endpoint metric families.
func metricPath(p string) string {
	switch p {
	case "/v1/plan", "/v1/simulate", "/healthz", "/metrics":
		return p
	}
	return "other"
}

// requestInfo is the per-request record the handler fills for the
// middleware's log line.
type requestInfo struct {
	scenarioHash string
	cacheOutcome string
}

type requestInfoKey struct{}

// info returns the request's mutable log record (nil outside the
// middleware, e.g. when a handler is invoked directly in a test).
func info(r *http.Request) *requestInfo {
	ri, _ := r.Context().Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// statusWriter records the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware wraps the mux with the observability layer: in-flight
// gauge, request counters by (path, status), latency histograms, and
// one structured log line per request.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Inc()
		defer s.inflight.Dec()

		id := s.reqID.Add(1)
		ri := &requestInfo{}
		r = r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)

		elapsed := time.Since(start)
		path := metricPath(r.URL.Path)
		s.requests.With(path, strconv.Itoa(sw.status)).Inc()
		s.latency.With(path).Observe(elapsed.Seconds())
		if s.log != nil {
			attrs := []slog.Attr{
				slog.Int64("req_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("duration", elapsed),
			}
			if ri.scenarioHash != "" {
				attrs = append(attrs, slog.String("scenario", ri.scenarioHash))
			}
			if ri.cacheOutcome != "" {
				attrs = append(attrs, slog.String("cache", ri.cacheOutcome))
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// CacheStats reports the cache counters since start.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	// Coalesced counts misses answered from an identical in-flight
	// computation (singleflight) instead of running the planner. They
	// are not counted in Misses — a coalesced request never computed.
	Coalesced int64 `json:"coalesced"`
}

// Stats returns a snapshot of the cache counters.
func (s *Server) Stats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	st := s.cache.stats()
	st.Coalesced = s.cacheCoalesced.Value()
	return st
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode left
}

// writeError maps a façade error onto a status code and envelope:
// *ValidationError → 400 (bad request), *InfeasibleError → 422 (valid
// spec, empty feasible set), anything else → 500.
func writeError(w http.ResponseWriter, err error) {
	var ve *dnnparallel.ValidationError
	if errors.As(err, &ve) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Field: ve.Field})
		return
	}
	var ie *dnnparallel.InfeasibleError
	if errors.As(err, &ie) {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
}

// scenarioHash is the canonical scenario's short FNV-1a digest — the
// identity a log reader can join across requests and against cache
// keys without reproducing the full canonical JSON.
func scenarioHash(canon []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(canon)
	return fmt.Sprintf("%016x", h.Sum64())
}

// handle wraps one façade call with decoding, canonicalization, the
// response cache, and the singleflight group. The cache stores
// marshaled response bytes: immutable, so concurrent hits never share
// mutable state. Responses always carry Content-Type: application/json
// and an explicit X-Cache header — hit, miss, coalesced (this request
// waited for an identical in-flight miss instead of computing), or
// bypass when caching is disabled — so clients and tests can assert
// cache behavior without scraping counters.
func (s *Server) handle(f func(*http.Request, dnnparallel.Scenario) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST a scenario JSON body"})
			return
		}
		// A scenario spec is a few hundred bytes; cap the body so a
		// hostile client cannot balloon the server.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading request body: %v", err), Field: "json"})
			return
		}
		sc, err := dnnparallel.DecodeScenario(body)
		if err != nil {
			writeError(w, err)
			return
		}
		// Canonical both validates and produces the cache key; the path
		// (and the trace variant) disambiguates plan from simulate
		// answers for the same spec.
		canon, err := sc.Canonical()
		if err != nil {
			writeError(w, err)
			return
		}
		if ri := info(r); ri != nil {
			ri.scenarioHash = scenarioHash(canon)
		}
		key := r.URL.Path + "\x00" + string(canon)
		if traceRequested(r) {
			key = r.URL.Path + "?trace=1\x00" + string(canon)
		}
		outcome := func(o string) {
			if ri := info(r); ri != nil {
				ri.cacheOutcome = o
			}
			w.Header().Set("X-Cache", o)
		}
		writeOK := func(data []byte) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
		}
		// The server's worker default applies AFTER the cache key is
		// computed: workers never change the result, so requests that
		// differ only in the server's deployment config must share cache
		// entries and flights.
		if s.workers > 0 && (sc.Search == nil || sc.Search.Workers == 0) {
			se := dnnparallel.SearchSpec{}
			if sc.Search != nil {
				se = *sc.Search
			}
			se.Workers = s.workers
			sc.Search = &se
		}
		compute := func() ([]byte, error) {
			if testPlanDelay != nil {
				testPlanDelay()
			}
			res, err := f(r, sc)
			if err != nil {
				return nil, err
			}
			data, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			return append(data, '\n'), nil
		}
		if s.cache == nil {
			outcome("bypass")
			data, err := compute()
			if err != nil {
				writeError(w, err)
				return
			}
			writeOK(data)
			return
		}
		if cached, ok := s.cache.get(key); ok {
			outcome("hit")
			writeOK(cached)
			return
		}
		// Miss. Join the in-flight computation for this key if one
		// exists; otherwise register as its leader.
		s.flightMu.Lock()
		if fl, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			<-fl.done
			s.cacheCoalesced.Inc()
			outcome("coalesced")
			if fl.err != nil {
				writeError(w, fl.err)
				return
			}
			writeOK(fl.data)
			return
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[key] = fl
		s.flightMu.Unlock()
		s.cache.miss()
		outcome("miss")
		fl.data, fl.err = compute()
		if fl.err == nil {
			s.cache.put(key, fl.data)
		}
		// Release followers only after the cache is filled, so requests
		// arriving after this flight resolves hit the cache instead of
		// starting a new one.
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(fl.done)
		if fl.err != nil {
			writeError(w, fl.err)
			return
		}
		writeOK(fl.data)
	}
}

// healthz reports liveness and the cache counters.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string     `json:"status"`
		Cache  CacheStats `json:"cache"`
	}{Status: "ok", Cache: s.Stats()})
}

// lru is a fixed-capacity, mutex-guarded LRU of marshaled responses.
// The hit/miss/eviction counters and the entries gauge live in the
// server's obs registry — the LRU increments them as the single source
// of truth, and stats() reads them back for /healthz.
type lru struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions *obs.Counter
	entries                 *obs.Gauge
}

type lruEntry struct {
	key  string
	data []byte
}

func newLRU(capacity int, hits, misses, evictions *obs.Counter, entries *obs.Gauge) *lru {
	return &lru{
		cap: capacity, ll: list.New(), items: make(map[string]*list.Element),
		hits: hits, misses: misses, evictions: evictions, entries: entries,
	}
}

// get returns the cached bytes and counts a hit. It does NOT count a
// miss on absence: misses are counted by the handler's flight leader
// via miss(), so coalesced followers (who also saw an absent key)
// inflate neither counter.
func (c *lru) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*lruEntry).data, true
	}
	return nil, false
}

// miss counts one cache miss that actually ran the planner.
func (c *lru) miss() { c.misses.Inc() }

func (c *lru) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).data = data
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, data: data})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
}

func (c *lru) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
	}
}
