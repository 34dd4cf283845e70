package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// withCollector installs a fresh collector for the test and restores
// the previous sink afterwards.
func withCollector(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector()
	prev := SetSink(c)
	t.Cleanup(func() { SetSink(prev) })
	return c
}

func TestDisabledSinkNoop(t *testing.T) {
	prev := SetSink(nil)
	defer SetSink(prev)
	if sink.Load() != nil {
		t.Fatal("tracing reported enabled with nil sink")
	}
	sp := StartSpan("root")
	if sp != nil {
		t.Fatalf("StartSpan with no sink returned %v, want nil", sp)
	}
	// Every method on the nil span must be a safe no-op.
	child := sp.Child("child")
	child.SetFloat("beta", 0.5)
	child.SetInt("range", 128)
	child.SetBool("cut", true)
	child.SetString("stage", "plc")
	child.End()
	sp.End()
	if child != nil {
		t.Fatalf("child of nil span is %v, want nil", child)
	}
}

func TestSpanNestingAndOrdering(t *testing.T) {
	c := withCollector(t)

	root := StartSpan("core.Process")
	if root == nil {
		t.Fatal("StartSpan returned nil with sink installed")
	}
	h := root.Child("stage.histogram")
	h.End()
	eq := root.Child("stage.equalize")
	inner := eq.Child("plc.dp")
	inner.End()
	eq.End()
	root.SetInt("range", 150)
	root.End()

	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("collected %d spans, want 4", len(spans))
	}
	// Completion order: leaves before their parents.
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	want := []string{"stage.histogram", "plc.dp", "stage.equalize", "core.Process"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("completion order %v, want %v", names, want)
		}
	}
	// Parent links form the right tree.
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["core.Process"].Parent != 0 {
		t.Errorf("root has parent %d", byName["core.Process"].Parent)
	}
	for child, parent := range map[string]string{
		"stage.histogram": "core.Process",
		"stage.equalize":  "core.Process",
		"plc.dp":          "stage.equalize",
	} {
		if byName[child].Parent != byName[parent].ID {
			t.Errorf("%s parent = %d, want %s (%d)",
				child, byName[child].Parent, parent, byName[parent].ID)
		}
	}
	if v, ok := byName["core.Process"].Attrs["range"].(int); !ok || v != 150 {
		t.Errorf("root attrs = %v, want range=150", byName["core.Process"].Attrs)
	}
	// Children index groups and orders by start time.
	idx := c.Children()
	if roots := idx[0]; len(roots) != 1 || roots[0].Name != "core.Process" {
		t.Errorf("roots = %v", idx[0])
	}
	kids := idx[byName["core.Process"].ID]
	if len(kids) != 2 || kids[0].Name != "stage.histogram" || kids[1].Name != "stage.equalize" {
		t.Errorf("children of root = %v", kids)
	}
}

func TestSpanChildOfNilParentIsRoot(t *testing.T) {
	c := withCollector(t)
	var parent *Span
	sp := parent.Child("video.frame")
	if sp == nil {
		t.Fatal("Child on nil parent with sink installed returned nil")
	}
	sp.End()
	if spans := c.Spans(); len(spans) != 1 || spans[0].Parent != 0 {
		t.Fatalf("spans = %v, want one root", spans)
	}
}

func TestSpanDoubleEndDeliversOnce(t *testing.T) {
	c := withCollector(t)
	sp := StartSpan("once")
	sp.End()
	sp.End()
	if n := len(c.Spans()); n != 1 {
		t.Fatalf("double End delivered %d spans", n)
	}
}

func TestCollectorConcurrentSpans(t *testing.T) {
	c := withCollector(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := StartSpan("worker")
				sp.Child("leaf").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if n := len(c.Spans()); n != workers*per*2 {
		t.Fatalf("collected %d spans, want %d", n, workers*per*2)
	}
}

func TestCollectorWriteJSONShape(t *testing.T) {
	c := NewCollector()
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	c.SpanEnd(SpanData{ID: 2, Parent: 1, Name: "stage.plc", Start: base.Add(time.Millisecond),
		Duration: 2 * time.Millisecond, Attrs: map[string]any{"segments": 10}})
	c.SpanEnd(SpanData{ID: 1, Name: "core.Process", Start: base, Duration: 5 * time.Millisecond})
	var sb strings.Builder
	if err := c.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(got) != 2 {
		t.Fatalf("dump has %d spans, want 2", len(got))
	}
	// Start-time ordered: the root (earlier) first despite later End.
	if got[0]["name"] != "core.Process" || got[1]["name"] != "stage.plc" {
		t.Errorf("dump order wrong: %v", got)
	}
	for _, key := range []string{"id", "name", "start", "duration_ns"} {
		if _, ok := got[0][key]; !ok {
			t.Errorf("span JSON missing %q: %v", key, got[0])
		}
	}
	if _, ok := got[1]["attrs"].(map[string]any); !ok {
		t.Errorf("span attrs not serialized: %v", got[1])
	}
}

// TestNilSinkOverheadGuard is the benchmark guard of the CI target: the
// disabled-tracing fast path across a whole Process-worth of span sites
// (~10 StartSpan/Child/End pairs) must cost well under a microsecond,
// i.e. be within noise of the uninstrumented pipeline, whose cheapest
// configuration runs in hundreds of microseconds.
func TestNilSinkOverheadGuard(t *testing.T) {
	prev := SetSink(nil)
	defer SetSink(prev)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			root := StartSpan("core.Process")
			for s := 0; s < 9; s++ {
				sp := root.Child("stage")
				sp.SetInt("k", s)
				sp.End()
			}
			root.End()
		}
	})
	perOp := res.NsPerOp()
	// ~10 span sites at a few ns each; 2µs leaves two orders of
	// magnitude of headroom against CI noise while still catching an
	// accidental allocation or lock on the disabled path.
	if perOp > 2000 {
		t.Errorf("disabled-path span overhead %d ns per Process-worth of sites; want <= 2000", perOp)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("disabled-path spans allocate %d objects/op; want 0", allocs)
	}
}
