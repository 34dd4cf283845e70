// The metrics registry: counters, gauges and fixed-bucket histograms
// with get-or-create registration and a JSON snapshot (-metrics-out).
// All instruments are safe for concurrent use and cheap enough to
// record unconditionally — a counter Add is one atomic add; a histogram
// Observe is a binary search plus two atomic adds — so metrics stay on
// even when tracing is disabled.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0 for the value to
// stay monotone; this is not enforced).
//
//hebs:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//hebs:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric holding the last recorded value.
type Gauge struct{ bits atomic.Uint64 }

// Set records the value.
//
//hebs:noalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (atomically, via CAS — safe for
// concurrent inc/dec pairs such as an in-flight counter).
//
//hebs:noalloc
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last recorded value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Bounds are the
// inclusive upper edges of each bucket; observations above the last
// bound land in the overflow bucket. Bucket layout is fixed at
// construction so snapshots are mergeable across processes.
type Histogram struct {
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 accumulated via CAS

	// win, when attached (SLO tracking), additionally receives every
	// observation into a rolling window. Nil costs one predictable
	// atomic load per Observe — the same discipline as the span sink.
	win atomic.Pointer[Window]
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
//
//hebs:noalloc
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	h.count.Add(1)
	if w := h.win.Load(); w != nil {
		w.Observe(v)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// EnableWindow attaches a rolling window of the given size to the
// histogram (idempotent: an existing window is kept and returned, its
// original size preserved). The windowed quantile layer of the SLO
// tracker calls this; plain histograms never pay more than the nil
// check in Observe.
func (h *Histogram) EnableWindow(size int) *Window {
	for {
		if w := h.win.Load(); w != nil {
			return w
		}
		w := NewWindow(size)
		if h.win.CompareAndSwap(nil, w) {
			return w
		}
	}
}

// Window returns the attached rolling window, or nil when none.
func (h *Histogram) Window() *Window { return h.win.Load() }

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper edges.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations with value <= LE (the overflow bucket is reported
// separately, keeping the JSON free of non-encodable +Inf).
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Buckets  []BucketCount `json:"buckets"`
	Overflow int64         `json:"overflow"`
}

// Snapshot captures the histogram's current state. Under concurrent
// Observe calls the bucket counts may trail Count by in-flight
// observations; each bucket count is itself exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]BucketCount, len(h.bounds)),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = BucketCount{LE: b, Count: atomic.LoadInt64(&h.counts[i])}
	}
	s.Overflow = atomic.LoadInt64(&h.counts[len(h.bounds)])
	return s
}

// LinearBuckets returns n upper edges start+width, start+2·width, ….
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i+1)
	}
	return out
}

// ExponentialBuckets returns n upper edges start, start·factor, ….
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the shared bucket layout for per-stage latency
// histograms: 10µs … ~5.2s in doubling steps (seconds, 20 buckets).
// The ladder deliberately extends well past any frame budget — the
// slow-path outliers (cold caches, first-frame exact searches, debug
// builds) are exactly the observations a latency histogram exists to
// resolve, so they must not all collapse into the +Inf bucket the
// Prometheus exposition appends.
func LatencyBuckets() []float64 { return ExponentialBuckets(10e-6, 2, 20) }

// Registry holds named instruments. Registration is get-or-create:
// asking for an existing name returns the existing instrument (package
// init order across instrumented packages therefore cannot panic).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the instrumented
// packages and the CLI -metrics-out hook.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if needed (an existing histogram keeps its original
// layout; bounds are ignored then).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// NewCounter registers a counter on the default registry.
func NewCounter(name string) *Counter { return Default().Counter(name) }

// NewGauge registers a gauge on the default registry.
func NewGauge(name string) *Gauge { return Default().Gauge(name) }

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	return Default().Histogram(name, bounds)
}

// Snapshot is a point-in-time copy of a registry, the -metrics-out
// JSON shape. Map keys serialize in sorted order, so the output is
// deterministic for a given set of metric names.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
