// Package obs is the repo's dependency-free observability layer:
// atomic counters, gauges, and fixed-bucket latency histograms collected
// in a Registry and rendered in the Prometheus text exposition format
// (version 0.0.4 — the format every Prometheus-compatible scraper,
// including Grafana Agent and VictoriaMetrics, ingests).
//
// The design mirrors the subset of github.com/prometheus/client_golang
// the planning service actually needs, without the dependency:
//
//   - Counter / Gauge are single atomic int64 cells (counters monotone
//     by construction: only Inc/Add with n ≥ 0);
//   - Histogram is a fixed upper-bound bucket vector with an atomic
//     count per bucket plus a CAS-loop float sum, so Observe is
//     lock-free and p50/p99 are derivable from the cumulative
//     _bucket{le=…} series the exporter emits;
//   - the *Vec variants add labels, instantiating one child metric per
//     distinct label-value tuple on first use;
//   - Registry.WritePrometheus renders every family sorted by name and
//     every series sorted by label values, so the exposition is
//     byte-deterministic for a given set of observations (golden-tested).
//
// All instruments are safe for concurrent use; registration is not a
// hot path and panics on duplicate or malformed names, matching the
// fail-loud validation idiom of internal/tensor and internal/timeline.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters are monotone).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: counter add of negative %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets is the default histogram bucket layout: latencies from
// 100 µs to 10 s, roughly logarithmic — wide enough for both a cache
// hit (~µs) and a cold pipeline search (~100 ms).
func DefBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %g after %g",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. NaN panics (an invalid duration is a bug,
// not a data point).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		panic("obs: histogram observation is NaN")
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is anything a family can hold as one labeled series.
type metric interface {
	// write renders the series' sample lines. name is the family name,
	// labels the rendered {k="v"} block ("" for an unlabeled series).
	write(b *strings.Builder, name, labels string)
}

func (c *Counter) write(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labels, c.Value())
}

func (g *Gauge) write(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labels, g.Value())
}

func (h *Histogram) write(b *strings.Builder, name, labels string) {
	// _bucket series carry the extra le label; splice it into the block.
	open := "{"
	rest := "}"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q%s %d\n", name, open, formatFloat(bound), rest, cum)
	}
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"%s %d\n", name, open, rest, h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// family is one named metric family with zero or more labeled series.
type family struct {
	name, help, typ string
	labels          []string

	mu     sync.Mutex
	series map[string]metric // key: canonical label-values tuple
	// make builds a new child when a label tuple first appears.
	make func() metric
}

// child returns (creating if needed) the series for a label tuple.
func (f *family) child(values []string) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values (%v), got %d",
			f.name, len(f.labels), f.labels, len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = f.make()
		f.series[key] = m
	}
	return m
}

// renderLabels builds the {k="v",…} block for a series key.
func (f *family) renderLabels(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := strings.Split(key, "\x00")
	parts := make([]string, len(f.labels))
	for i, l := range f.labels {
		parts[i] = l + `="` + escapeLabel(values[i]) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName is the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == ':'
		if !letter && !(i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// register installs a family, panicking on duplicates or bad names.
func (r *Registry) register(name, help, typ string, labels []string, mk func() metric) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		series: make(map[string]metric),
		make:   mk,
	}
	r.families[name] = f
	return f
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, func() metric { return &Counter{} })
	return f.child(nil).(*Counter)
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, func() metric { return &Gauge{} })
	return f.child(nil).(*Gauge)
}

// NewHistogram registers an unlabeled histogram over the given upper
// bounds (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	f := r.register(name, help, "histogram", nil, func() metric { return newHistogram(buckets) })
	return f.child(nil).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labels, func() metric { return &Counter{} })}
}

// With returns the child counter for a label-value tuple, creating it
// on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family over the given
// upper bounds (nil = DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets()
	}
	return &HistogramVec{r.register(name, help, "histogram", labels, func() metric { return newHistogram(buckets) })}
}

// With returns the child histogram for a label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// WritePrometheus renders every family in the text exposition format:
// families sorted by name, series sorted by label values, so the output
// is byte-deterministic for a given set of observations.
func (r *Registry) WritePrometheus(b *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			if f.help != "" {
				fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
			}
			fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
		}
		for _, k := range keys {
			f.series[k].write(b, f.name, f.renderLabels(k))
		}
		f.mu.Unlock()
	}
}

// Expose returns the full exposition as a string.
func (r *Registry) Expose() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// Handler serves the exposition over HTTP (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Expose()))
	})
}
