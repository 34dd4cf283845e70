package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCLIFlagsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if err := fs.Parse([]string{
		"-trace-out", tracePath, "-metrics-out", metricsPath,
		"-cpuprofile", cpuPath, "-memprofile", memPath,
	}); err != nil {
		t.Fatal(err)
	}
	if *c.traceOut == "" {
		t.Error("-trace-out not recorded")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if sink.Load() == nil {
		t.Error("Start did not install a span sink")
	}
	sp := StartSpan("work")
	sp.Child("inner").End()
	sp.End()
	NewCounter("cli_test.ran").Inc()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Load() != nil {
		t.Error("Stop did not restore the nil sink")
	}

	var spans []SpanData
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace dump unreadable: %v", err)
	}
	if len(spans) != 2 {
		t.Errorf("trace has %d spans, want 2", len(spans))
	}
	var snap Snapshot
	data, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics dump unreadable: %v", err)
	}
	if snap.Counters["cli_test.ran"] < 1 {
		t.Errorf("metrics snapshot missing counter: %v", snap.Counters)
	}
	for _, p := range []string{cpuPath, memPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestCLIFlagsStopWithoutStart(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Errorf("Stop on un-started handle: %v", err)
	}
}

// TestCLIFlagsTelemetryLifecycle runs the full -telemetry wiring: the
// server answers while started, the tracker carries the default
// metrics plus the -slo budget, the flight recorder is installed
// globally, and Stop dumps -flight-out and tears everything down.
func TestCLIFlagsTelemetryLifecycle(t *testing.T) {
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.json")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if err := fs.Parse([]string{
		"-telemetry", "127.0.0.1:0",
		"-slo", "video.frame.seconds:p99<100ms",
		"-flight-out", flightPath,
		"-flight-size", "4",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	srv := c.server
	if srv == nil {
		t.Fatal("no telemetry server after Start with -telemetry")
	}
	if Flight() != c.Flight() || c.Flight() == nil {
		t.Fatal("Start did not install the flight recorder globally")
	}
	if len(c.Flight().slots) != 4 {
		t.Errorf("-flight-size ignored: ring size %d", len(c.Flight().slots))
	}
	budgets := c.SLO().Budgets()
	if len(budgets) != 1 || budgets[0].Metric != "video.frame.seconds" || budgets[0].Quantile != 0.99 {
		t.Errorf("budgets = %+v", budgets)
	}

	// Feed the pipeline-side instruments the way a run would.
	Default().Histogram("video.frame.seconds", LatencyBuckets()).Observe(0.005)
	Flight().Record(FrameRecord{Frame: 0, Beta: 0.5, Workers: 1, Seconds: 0.005})

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatalf("scrape while running: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "video_frame_seconds_count") {
		t.Errorf("/metrics: %d\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(srv.URL() + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep SLOReport
	if jerr := json.NewDecoder(resp.Body).Decode(&rep); jerr != nil {
		t.Fatalf("/debug/slo: %v", jerr)
	}
	resp.Body.Close()
	if len(rep.Stages) != len(DefaultSLOMetrics) {
		t.Errorf("/debug/slo tracks %d stages, want %d", len(rep.Stages), len(DefaultSLOMetrics))
	}

	url := srv.URL()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if c.server != nil || c.SLO() != nil || c.Flight() != nil {
		t.Error("Stop did not clear the telemetry handles")
	}
	if Flight() != nil {
		t.Error("Stop did not restore the previous (nil) flight recorder")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answering after Stop")
	}
	data, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatalf("-flight-out not written: %v", err)
	}
	var recs []FrameRecord
	if err := json.Unmarshal(data, &recs); err != nil || len(recs) != 1 || recs[0].Frame != 0 {
		t.Errorf("-flight-out contents: %v %+v", err, recs)
	}
}

// TestCLIFlagsFlightOutWithoutTelemetry proves -flight-out alone turns
// recording on (no server required).
func TestCLIFlagsFlightOutWithoutTelemetry(t *testing.T) {
	flightPath := filepath.Join(t.TempDir(), "flight.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if err := fs.Parse([]string{"-flight-out", flightPath}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if c.server != nil {
		t.Error("server started without -telemetry")
	}
	if Flight() == nil {
		t.Fatal("recorder not installed by -flight-out")
	}
	Flight().Record(FrameRecord{Frame: 42, Workers: 1})
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []FrameRecord
	if err := json.Unmarshal(data, &recs); err != nil || len(recs) != 1 || recs[0].Frame != 42 {
		t.Errorf("flight dump: %v %+v", err, recs)
	}
}

func TestCLIFlagsBadSLOSpec(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if err := fs.Parse([]string{"-telemetry", "127.0.0.1:0", "-slo", "not-a-spec"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		_ = c.Stop() //nolint — teardown of the unexpected success
		t.Fatal("Start accepted a malformed -slo spec")
	}
	// The failed Start must still release the flight recorder on Stop.
	if err := c.Stop(); err != nil {
		t.Errorf("Stop after failed Start: %v", err)
	}
	if Flight() != nil {
		t.Error("flight recorder leaked after failed Start")
	}
}

func TestCLIFlagsCollectorWithoutTraceOut(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	col := c.Collector() // timeline path: force collection sans -trace-out
	StartSpan("x").End()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(col.Spans()) != 1 {
		t.Errorf("collector captured %d spans, want 1", len(col.Spans()))
	}
}
