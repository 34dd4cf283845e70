package core

import (
	"context"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/driver"
	"hebs/internal/obs"
	"hebs/internal/sipi"
)

func withCollector(t *testing.T) *obs.Collector {
	t.Helper()
	c := obs.NewCollector()
	prev := obs.SetSink(c)
	t.Cleanup(func() { obs.SetSink(prev) })
	return c
}

// TestProcessSpanTreeCoversPipeline asserts the acceptance criterion:
// with tracing enabled one Process run emits a span tree with one child
// per pipeline stage, properly parented under the run span.
func TestProcessSpanTreeCoversPipeline(t *testing.T) {
	c := withCollector(t)
	img, err := sipi.Generate("lena", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.DefaultConfig
	if _, err := Process(img, Options{DynamicRange: 150, Driver: &cfg}); err != nil {
		t.Fatal(err)
	}
	spans := c.Spans()
	var root obs.SpanData
	byName := map[string]obs.SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Name == "core.Process" {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatalf("no core.Process root span in %d spans", len(spans))
	}
	for _, stage := range []string{
		"stage.range_select", "stage.histogram", "stage.equalize",
		"stage.plc", "stage.driver", "stage.apply",
		"stage.distortion", "stage.power",
	} {
		s, ok := byName[stage]
		if !ok {
			t.Errorf("pipeline stage %s missing from span tree", stage)
			continue
		}
		if s.Parent != root.ID {
			t.Errorf("%s parented under %d, want core.Process (%d)", stage, s.Parent, root.ID)
		}
		if s.Duration < 0 {
			t.Errorf("%s has negative duration", stage)
		}
	}
	// The PLC DP is itself traced under stage.plc.
	plcStage := byName["stage.plc"]
	coarsen, ok := byName["plc.Coarsen"]
	if !ok || coarsen.Parent != plcStage.ID {
		t.Errorf("plc.Coarsen span missing or mis-parented (%+v)", coarsen)
	}
	for _, inner := range []string{"plc.chord_table", "plc.dp"} {
		if s, ok := byName[inner]; !ok || s.Parent != coarsen.ID {
			t.Errorf("%s span missing or mis-parented (%+v)", inner, s)
		}
	}
	// The run span is annotated with the operating point.
	if root.Attrs["range"] != 150 {
		t.Errorf("root attrs = %v, want range=150", root.Attrs)
	}
}

// TestProcessTraceNestsUnderParent verifies the Options.Trace hook used
// by the batch and video layers.
func TestProcessTraceNestsUnderParent(t *testing.T) {
	c := withCollector(t)
	img, err := sipi.Generate("pout", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	parent := obs.StartSpan("caller")
	if _, err := Process(img, Options{DynamicRange: 120, Trace: parent}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	var callerID uint64
	for _, s := range c.Spans() {
		if s.Name == "caller" {
			callerID = s.ID
		}
	}
	for _, s := range c.Spans() {
		if s.Name == "core.Process" && s.Parent != callerID {
			t.Errorf("core.Process parent = %d, want caller (%d)", s.Parent, callerID)
		}
	}
}

func TestProcessMetricsRecorded(t *testing.T) {
	reg := obs.Default()
	framesBefore := reg.Counter("core.frames_total").Value()
	plcBefore := reg.Histogram("core.stage.plc.seconds", nil).Count()
	img, err := sipi.Generate("sail", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Process(img, Options{DynamicRange: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core.frames_total").Value(); got != framesBefore+1 {
		t.Errorf("frames_total %d, want %d", got, framesBefore+1)
	}
	if got := reg.Histogram("core.stage.plc.seconds", nil).Count(); got != plcBefore+1 {
		t.Errorf("plc stage latency count %d, want %d", got, plcBefore+1)
	}
	if got := reg.Gauge("core.last_range").Value(); got != 100 {
		t.Errorf("last_range gauge %v, want 100", got)
	}
	if got := reg.Gauge("core.last_beta").Value(); got != res.Beta {
		t.Errorf("last_beta gauge %v, want %v", got, res.Beta)
	}
}

// TestSelectRangeRecordsStage: a standalone range search is attributed
// to the range_select stage, as it is inside Process.
func TestSelectRangeRecordsStage(t *testing.T) {
	h := obs.Default().Histogram("core.stage.range_select.seconds", nil)
	before := h.Count()
	img, err := sipi.Generate("lena", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	if _, _, err := eng.SelectRange(context.Background(), img, Options{MaxDistortionPercent: 10, ExactSearch: true}); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != before+1 {
		t.Errorf("range_select stage count %d, want %d", got, before+1)
	}
	// A forced range is a lookup: Process keeps its span but adds no
	// sample.
	res, err := eng.Process(context.Background(), img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if got := h.Count(); got != before+1 {
		t.Errorf("forced-range Process added a range_select sample (count %d, want %d)", got, before+1)
	}
}

// TestProcessZonedRecordsStages: one zoned call feeds the same stage
// ledger as Process — per zone one range_select, histogram, equalize,
// apply, distortion and power sample, plus the frame's distortion on a
// multi-zone grid — and, on a multi-zone grid, no plc sample. A 1×1
// grid's one zone is the frame, so it measures the metric once.
func TestProcessZonedRecordsStages(t *testing.T) {
	img, err := sipi.Generate("lena", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		b    backlight.Backend
		want map[string]int64
	}{
		{led, map[string]int64{
			stageRangeSelect: 4, stageHistogram: 4, stageEqualize: 4, stagePLC: 0,
			stageApply: 4, stageDistortion: 5, stagePower: 4,
		}},
		{backlight.DefaultCCFL(), map[string]int64{
			stageRangeSelect: 1, stageHistogram: 1, stageEqualize: 1, stagePLC: 1,
			stageApply: 1, stageDistortion: 1, stagePower: 1,
		}},
		{backlight.DefaultOLED(), map[string]int64{
			stageRangeSelect: 1, stageHistogram: 1, stageEqualize: 1, stagePLC: 1,
			stageApply: 1, stageDistortion: 1, stagePower: 1,
		}},
	} {
		reg := obs.Default()
		before := map[string]int64{}
		for s := range c.want {
			before[s] = reg.Histogram("core.stage."+s+".seconds", nil).Count()
		}
		eng := NewEngine(EngineOptions{PlanCacheSize: -1})
		res, err := eng.ProcessZoned(context.Background(), img, Options{MaxDistortionPercent: 10, ExactSearch: true}, c.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		for s, want := range c.want {
			if got := reg.Histogram("core.stage."+s+".seconds", nil).Count() - before[s]; got != want {
				t.Errorf("%s: stage %s gained %d samples, want %d", c.b.Name(), s, got, want)
			}
		}
	}
}

func TestResultStats(t *testing.T) {
	img, err := sipi.Generate("lena", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.DefaultConfig
	res, err := Process(img, Options{DynamicRange: 150, Driver: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Range != res.Range || st.Beta != res.Beta {
		t.Errorf("Stats operating point %+v does not match Result", st)
	}
	if st.Segments != len(res.Breakpoints)-1 {
		t.Errorf("Stats.Segments = %d, want %d", st.Segments, len(res.Breakpoints)-1)
	}
	if st.AchievedDistortion != res.AchievedDistortion ||
		st.PowerSavingPercent != res.PowerSavingPercent ||
		st.PowerBefore != res.PowerBefore || st.PowerAfter != res.PowerAfter ||
		st.PLCError != res.PLCError || st.RealizationError != res.RealizationError ||
		st.PredictedDistortion != res.PredictedDistortion {
		t.Errorf("Stats fields diverge from Result: %+v", st)
	}
}

func TestDefaultCurveHitCounters(t *testing.T) {
	reg := obs.Default()
	lookupsBefore := reg.Counter("core.default_curve_lookups_total").Value()
	if _, err := DefaultCurve(); err != nil {
		t.Fatal(err)
	}
	if _, err := DefaultCurve(); err != nil {
		t.Fatal(err)
	}
	lookups := reg.Counter("core.default_curve_lookups_total").Value()
	builds := reg.Counter("core.default_curve_builds_total").Value()
	if lookups != lookupsBefore+2 {
		t.Errorf("lookups %d, want %d", lookups, lookupsBefore+2)
	}
	if builds != 1 {
		t.Errorf("builds %d, want exactly 1 per process", builds)
	}
	if lookups-builds < 1 {
		t.Errorf("expected at least one cache hit (lookups=%d builds=%d)", lookups, builds)
	}
}
