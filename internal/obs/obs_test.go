package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text exposition for a
// fixed set of observations: families sorted by name, series sorted by
// label values, histogram rendered as cumulative le buckets + sum +
// count. Any byte of drift here breaks real scrapers.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("requests_total", "Requests served.", "path", "status")
	c.With("/v1/plan", "200").Add(3)
	c.With("/v1/plan", "400").Inc()
	g := reg.NewGauge("inflight", "Requests in flight.")
	g.Set(2)
	h := reg.NewHistogram("latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	want := `# HELP inflight Requests in flight.
# TYPE inflight gauge
inflight 2
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 3.55
latency_seconds_count 3
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total{path="/v1/plan",status="200"} 3
requests_total{path="/v1/plan",status="400"} 1
`
	if got := reg.Expose(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values
// must be escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterVec("errs_total", "", "msg").With("a\"b\\c\nd").Inc()
	got := reg.Expose()
	want := `errs_total{msg="a\"b\\c\nd"} 1`
	if !strings.Contains(got, want) {
		t.Errorf("exposition %q does not contain escaped series %q", got, want)
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines (run under -race in CI) and checks the totals are exact:
// no lost updates, histogram sum/count consistent with the bucket
// totals.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("ops_total", "")
	g := reg.NewGauge("level", "")
	hv := reg.NewHistogramVec("obs_seconds", "", []float64{1, 2}, "k")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				hv.With("a").Observe(0.5)
				hv.With("b").Observe(1.5)
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %d, want %d", g.Value(), total)
	}
	for _, k := range []string{"a", "b"} {
		h := hv.With(k)
		if h.Count() != total {
			t.Errorf("histogram %q count = %d, want %d", k, h.Count(), total)
		}
	}
	if got, want := hv.With("a").Sum(), 0.5*total; math.Abs(got-want) > 1e-9*want {
		t.Errorf("histogram a sum = %g, want %g", got, want)
	}
	if got, want := hv.With("b").Sum(), 1.5*total; math.Abs(got-want) > 1e-9*want {
		t.Errorf("histogram b sum = %g, want %g", got, want)
	}
	// The exposition renders while observations are done: also exercise
	// it against the final state for bucket/count consistency.
	text := reg.Expose()
	if !strings.Contains(text, `obs_seconds_bucket{k="a",le="+Inf"} 16000`) {
		t.Errorf("exposition missing the +Inf bucket == count invariant:\n%s", text)
	}
}

// TestRegistrationPanics: duplicate and malformed registrations are
// programmer errors and fail loudly.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	reg.NewCounter("dup", "")
	mustPanic("duplicate name", func() { reg.NewGauge("dup", "") })
	mustPanic("bad name", func() { reg.NewCounter("9starts_with_digit", "") })
	mustPanic("bad label", func() { reg.NewCounterVec("ok_name", "", "le") })
	mustPanic("negative counter add", func() { reg.NewCounter("neg", "").Add(-1) })
	mustPanic("NaN observation", func() { reg.NewHistogram("h", "", nil).Observe(math.NaN()) })
	mustPanic("label arity", func() { reg.NewCounterVec("v", "", "a", "b").With("only-one") })
}
