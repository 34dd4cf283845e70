// Rolling SLO tracking: fixed-size windows of recent observations
// layered on the latency histograms, windowed quantiles computed on
// demand, and configurable per-metric budgets ("video.frame.seconds
// p99 < 33ms") whose breaches are counted in the registry. The window
// write path is O(1) and lock-free — an atomic index reservation plus
// one atomic store — so it is safe to leave attached to per-frame
// histograms; all sorting happens on the read side (a /debug/slo
// request or an explicit Check), which is off the frame hot path.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSLOWindow is the observation window size used by the CLI
// telemetry wiring: at 30 fps it spans ~34s of frames, enough for a
// stable p99 with a bounded (8 KiB) footprint per tracked metric.
const DefaultSLOWindow = 1024

// Window is a fixed-size ring of the most recent observations of one
// metric. Observe is O(1), allocation-free and safe for concurrent
// use; Values/Quantiles read a best-effort snapshot (a slot being
// overwritten concurrently yields that writer's previous value — each
// slot load is itself atomic, so no torn floats).
type Window struct {
	slots []atomic.Uint64 // float64 bits
	idx   atomic.Uint64   // total observations ever; next slot = idx % len
}

// NewWindow returns a window retaining the last `size` observations
// (size < 1 is clamped to 1).
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	return &Window{slots: make([]atomic.Uint64, size)}
}

// Observe records one value, evicting the oldest when full.
//
//hebs:noalloc
func (w *Window) Observe(v float64) {
	i := w.idx.Add(1) - 1
	w.slots[i%uint64(len(w.slots))].Store(math.Float64bits(v))
}

// Count returns the number of observations currently held:
// min(total observed, size).
func (w *Window) Count() int {
	n := w.idx.Load()
	if n > uint64(len(w.slots)) {
		return len(w.slots)
	}
	return int(n)
}

// Values appends the windowed observations to dst (unordered) and
// returns the extended slice.
func (w *Window) Values(dst []float64) []float64 {
	n := w.Count()
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(w.slots[i].Load()))
	}
	return dst
}

// Quantile returns the q-quantile (0 < q <= 1) of a sorted sample by
// the nearest-rank method: the smallest value v such that at least
// q·n observations are <= v. An empty sample returns 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// SLOBudget is one budget rule: the metric's windowed Quantile must
// not exceed Budget (seconds for the latency histograms).
type SLOBudget struct {
	Metric   string  `json:"metric"`
	Quantile float64 `json:"quantile"` // in (0, 1)
	Budget   float64 `json:"budget"`   // seconds
}

// ParseSLOSpecs parses the -slo flag grammar: comma-separated
// "metric:pNN<budget" rules, e.g.
//
//	video.frame.seconds:p99<33ms,core.stage.plc.seconds:p95<0.002
//
// The quantile token is p followed by decimal digits (p50 → 0.50,
// p999 → 0.999); the budget is either a plain float in seconds or a
// time.ParseDuration string.
func ParseSLOSpecs(s string) ([]SLOBudget, error) {
	var out []SLOBudget
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		colon := strings.LastIndex(part, ":")
		if colon <= 0 {
			return nil, fmt.Errorf("obs: SLO spec %q: want metric:pNN<budget", part)
		}
		metric, rule := part[:colon], part[colon+1:]
		lt := strings.Index(rule, "<")
		if lt < 0 {
			return nil, fmt.Errorf("obs: SLO spec %q: missing '<'", part)
		}
		qtok, btok := rule[:lt], rule[lt+1:]
		if len(qtok) < 2 || qtok[0] != 'p' {
			return nil, fmt.Errorf("obs: SLO spec %q: quantile token %q is not pNN", part, qtok)
		}
		digits := qtok[1:]
		qi, err := strconv.Atoi(digits)
		if err != nil || qi <= 0 {
			return nil, fmt.Errorf("obs: SLO spec %q: quantile token %q is not pNN", part, qtok)
		}
		q := float64(qi) / math.Pow10(len(digits))
		if q <= 0 || q >= 1 {
			return nil, fmt.Errorf("obs: SLO spec %q: quantile %v out of (0,1)", part, q)
		}
		budget, err := strconv.ParseFloat(btok, 64)
		if err != nil {
			d, derr := time.ParseDuration(btok)
			if derr != nil {
				return nil, fmt.Errorf("obs: SLO spec %q: budget %q is neither seconds nor a duration", part, btok)
			}
			budget = d.Seconds()
		}
		if budget <= 0 {
			return nil, fmt.Errorf("obs: SLO spec %q: budget must be positive, got %v", part, budget)
		}
		out = append(out, SLOBudget{Metric: metric, Quantile: q, Budget: budget})
	}
	return out, nil
}

// SLOStageReport is one tracked metric's windowed state at Check time.
type SLOStageReport struct {
	Metric string `json:"metric"`
	// Count is the number of observations in the window.
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Budget fields are zero when the metric has no budget rule.
	Quantile float64 `json:"quantile,omitempty"`
	Budget   float64 `json:"budget,omitempty"`
	// Value is the windowed Quantile the budget is judged against.
	Value    float64 `json:"value,omitempty"`
	Breached bool    `json:"breached,omitempty"`
	// Breaches is the cumulative breach count for this metric (the
	// registry counter slo.<metric>.breaches_total).
	Breaches int64 `json:"breaches_total,omitempty"`
}

// SLOReport is the /debug/slo payload and the programmatic gate for
// the soak/bench harnesses.
type SLOReport struct {
	Window int              `json:"window"`
	Stages []SLOStageReport `json:"stages"`
	// Breaches counts the budget rules breached by this check.
	Breaches int `json:"breaches"`
}

// Breached reports whether any budget rule failed in this check.
func (r *SLOReport) Breached() bool { return r.Breaches > 0 }

// SLOTracker attaches rolling windows to named latency histograms and
// judges their windowed quantiles against budgets. Breach accounting
// is sampled: each Check that finds a metric over budget increments
// that metric's slo.<metric>.breaches_total counter once, so the
// counter measures "checks that saw a breach", not breached frames.
type SLOTracker struct {
	reg    *Registry
	window int

	mu      sync.Mutex
	metrics []string // tracked metrics in registration order
	tracked map[string]*Window
	budgets map[string]SLOBudget

	// OnBreach, when non-nil, runs synchronously at the end of any
	// Check that found at least one breach — the hook the CLI uses to
	// dump the flight recorder while the offending frames are still in
	// the ring.
	OnBreach func(*SLOReport)
}

// NewSLOTracker returns a tracker over reg (nil selects the default
// registry) with the given per-metric window size (<= 0 selects
// DefaultSLOWindow).
func NewSLOTracker(reg *Registry, window int) *SLOTracker {
	if reg == nil {
		reg = Default()
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	return &SLOTracker{
		reg:     reg,
		window:  window,
		tracked: make(map[string]*Window),
		budgets: make(map[string]SLOBudget),
	}
}

// Track attaches a rolling window to the named latency histogram
// (created with the default latency ladder if it does not exist yet)
// so its windowed quantiles appear in Check reports. Tracking twice is
// a no-op.
func (t *SLOTracker) Track(metric string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trackLocked(metric)
}

func (t *SLOTracker) trackLocked(metric string) {
	if _, ok := t.tracked[metric]; ok {
		return
	}
	h := t.reg.Histogram(metric, LatencyBuckets())
	t.tracked[metric] = h.EnableWindow(t.window)
	t.metrics = append(t.metrics, metric)
}

// SetBudget installs (or replaces) the budget rule for b.Metric and
// tracks the metric.
func (t *SLOTracker) SetBudget(b SLOBudget) error {
	if b.Metric == "" {
		return fmt.Errorf("obs: SLO budget with empty metric")
	}
	if b.Quantile <= 0 || b.Quantile >= 1 {
		return fmt.Errorf("obs: SLO budget %s: quantile %v out of (0,1)", b.Metric, b.Quantile)
	}
	if b.Budget <= 0 {
		return fmt.Errorf("obs: SLO budget %s: budget must be positive, got %v", b.Metric, b.Budget)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trackLocked(b.Metric)
	t.budgets[b.Metric] = b
	return nil
}

// Budgets returns the installed budget rules in tracking order.
func (t *SLOTracker) Budgets() []SLOBudget {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOBudget, 0, len(t.budgets))
	for _, m := range t.metrics {
		if b, ok := t.budgets[m]; ok {
			out = append(out, b)
		}
	}
	return out
}

// Check computes the windowed quantiles of every tracked metric,
// judges the budget rules, bumps breach counters and returns the
// report. Safe for concurrent use; cost is O(window·log window) per
// tracked metric, entirely on the caller's goroutine.
func (t *SLOTracker) Check() *SLOReport {
	t.mu.Lock()
	metrics := append([]string(nil), t.metrics...)
	windows := make(map[string]*Window, len(t.tracked))
	for k, v := range t.tracked {
		windows[k] = v
	}
	budgets := make(map[string]SLOBudget, len(t.budgets))
	for k, v := range t.budgets {
		budgets[k] = v
	}
	onBreach := t.OnBreach
	t.mu.Unlock()

	rep := &SLOReport{Window: t.window}
	scratch := make([]float64, 0, t.window)
	for _, m := range metrics {
		w := windows[m]
		scratch = w.Values(scratch[:0])
		sort.Float64s(scratch)
		st := SLOStageReport{
			Metric: m,
			Count:  len(scratch),
			P50:    Quantile(scratch, 0.50),
			P95:    Quantile(scratch, 0.95),
			P99:    Quantile(scratch, 0.99),
		}
		if b, ok := budgets[m]; ok {
			st.Quantile = b.Quantile
			st.Budget = b.Budget
			st.Value = Quantile(scratch, b.Quantile)
			st.Breached = st.Count > 0 && st.Value > b.Budget
			breaches := t.reg.Counter("slo." + m + ".breaches_total")
			if st.Breached {
				breaches.Inc()
				rep.Breaches++
			}
			st.Breaches = breaches.Value()
		}
		rep.Stages = append(rep.Stages, st)
	}
	if rep.Breached() && onBreach != nil {
		onBreach(rep)
	}
	return rep
}
