// Package obs is the pipeline observability layer: a lightweight
// span/trace API, a concurrency-safe metrics registry, and CLI
// profiling hooks shared by the four commands. It has no dependencies
// outside the standard library and is designed to be zero-cost when
// disabled: with no sink installed, StartSpan returns a nil *Span whose
// methods are nil-safe no-ops, so instrumented hot paths pay only a
// single atomic load per span site.
//
// Span names follow the paper's pipeline decomposition (Figure 4): the
// stages under core.Process are stage.range_select (D_max → R lookup,
// Section 3), stage.histogram, stage.equalize (GHE, Eq. 5–7),
// stage.plc (the Eq. 9 dynamic program), stage.driver (PLRD voltage
// programming, Eq. 10), stage.apply, stage.distortion and stage.power.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is the immutable record a Sink receives when a span ends.
type SpanData struct {
	// ID and Parent link the span into a tree; Parent is 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name identifies the pipeline stage (see the package comment).
	Name string `json:"name"`
	// Start is the wall-clock start; Duration is monotonic.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Attrs carries small key/value annotations (R, β, frame index…).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Sink consumes completed spans. Implementations must be safe for
// concurrent use: batch and video pipelines end spans from many
// goroutines.
type Sink interface {
	SpanEnd(SpanData)
}

var (
	sink   atomic.Pointer[sinkBox]
	spanID atomic.Uint64
)

// sinkBox wraps the interface so atomic.Pointer can hold it.
type sinkBox struct{ s Sink }

// SetSink installs the global span sink. Passing nil disables tracing
// (the fast path). The previous sink, if any, is returned.
func SetSink(s Sink) Sink {
	var prev *sinkBox
	if s == nil {
		prev = sink.Swap(nil)
	} else {
		prev = sink.Swap(&sinkBox{s: s})
	}
	if prev == nil {
		return nil
	}
	return prev.s
}

// Span is an in-flight timed operation. A nil *Span is valid and all
// its methods are no-ops, which is what StartSpan returns when tracing
// is disabled.
type Span struct {
	id     uint64
	parent uint64
	name   string
	start  time.Time
	mu     sync.Mutex
	attrs  map[string]any
	ended  bool
}

// StartSpan opens a root span. When no sink is installed it returns
// nil, and every derived Child is nil too, so the entire instrumented
// call tree costs one atomic load.
func StartSpan(name string) *Span {
	if sink.Load() == nil {
		return nil
	}
	return &Span{
		id:    spanID.Add(1),
		name:  name,
		start: time.Now(),
	}
}

// Child opens a span nested under s. On a nil receiver it behaves like
// StartSpan: callers thread an optional parent (for example
// core.Options.Trace) without caring whether one was supplied.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return StartSpan(name)
	}
	return &Span{
		id:     spanID.Add(1),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// The typed setters check for nil before calling set so that with
// tracing disabled the value is never boxed into an interface — the
// annotation sites in the pipeline hot path stay allocation-free.

// SetFloat annotates the span. No-op on nil.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.set(key, v)
}

// SetInt annotates the span. No-op on nil.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.set(key, v)
}

// SetBool annotates the span. No-op on nil.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.set(key, v)
}

// SetString annotates the span. No-op on nil.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.set(key, v)
}

func (s *Span) set(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End closes the span and delivers it to the sink installed at end
// time. Ending twice delivers once; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	box := sink.Load()
	if box == nil {
		return
	}
	box.s.SpanEnd(SpanData{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Attrs:    attrs,
	})
}

// Collector is a Sink that buffers spans in memory for inspection or a
// JSON dump (-trace-out).
type Collector struct {
	mu    sync.Mutex
	spans []SpanData
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SpanEnd implements Sink.
func (c *Collector) SpanEnd(d SpanData) {
	c.mu.Lock()
	c.spans = append(c.spans, d)
	c.mu.Unlock()
}

// Spans returns a copy of the collected spans in completion order.
func (c *Collector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanData, len(c.spans))
	copy(out, c.spans)
	return out
}

// Reset discards all collected spans.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}

// Children returns a parent-ID → children index over the collected
// spans, each child list ordered by start time. Root spans are under
// key 0.
func (c *Collector) Children() map[uint64][]SpanData {
	spans := c.Spans()
	idx := make(map[uint64][]SpanData)
	for _, s := range spans {
		idx[s.Parent] = append(idx[s.Parent], s)
	}
	for k := range idx {
		sort.Slice(idx[k], func(i, j int) bool { return idx[k][i].Start.Before(idx[k][j].Start) })
	}
	return idx
}

// WriteJSON dumps the collected spans as a JSON array (start-time
// ordered) — the -trace-out format.
func (c *Collector) WriteJSON(w io.Writer) error {
	spans := c.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start.Equal(spans[j].Start) {
			return spans[i].ID < spans[j].ID
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
