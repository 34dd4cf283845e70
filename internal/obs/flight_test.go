package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"hebs/internal/noalloc"
)

// noallocSuspects renders this package's //hebs:noalloc inventory in
// the `hebsvet -list` format, so an alloc-guard failure names the
// annotated functions to re-check (run `go run ./cmd/hebsvet -v` for
// the exact escaping expression) instead of reporting a bare count.
func noallocSuspects(t *testing.T) string {
	t.Helper()
	inv, err := noalloc.ScanDir("../..", ".")
	if err != nil {
		return "(noalloc inventory unavailable: " + err.Error() + ")"
	}
	var sb strings.Builder
	inv.WriteList(&sb)
	return sb.String()
}

// TestFlightRecorderWraparound drives more records than the ring holds
// and checks the snapshot retains exactly the newest `size` records,
// oldest first.
func TestFlightRecorderWraparound(t *testing.T) {
	for _, size := range []int{1, 4, 7} {
		f := NewFlightRecorder(size)
		if len(f.slots) != size {
			t.Fatalf("ring holds %d slots, want %d", len(f.slots), size)
		}
		const total = 23
		for i := 0; i < total; i++ {
			f.Record(FrameRecord{Frame: i, Beta: float64(i) / total})
		}
		if got := f.idx.Load(); got != total {
			t.Errorf("size %d: %d records fed, want %d", size, got, total)
		}
		recs := f.Snapshot()
		if len(recs) != size {
			t.Fatalf("size %d: snapshot holds %d records, want %d", size, len(recs), size)
		}
		for k, rec := range recs {
			if want := total - size + k; rec.Frame != want {
				t.Errorf("size %d: snapshot[%d].Frame = %d, want %d (oldest first)", size, k, rec.Frame, want)
			}
		}
	}
}

func TestFlightRecorderPartial(t *testing.T) {
	f := NewFlightRecorder(8)
	if recs := f.Snapshot(); len(recs) != 0 {
		t.Fatalf("empty recorder snapshot holds %d records", len(recs))
	}
	f.Record(FrameRecord{Frame: 0})
	f.Record(FrameRecord{Frame: 1})
	recs := f.Snapshot()
	if len(recs) != 2 || recs[0].Frame != 0 || recs[1].Frame != 1 {
		t.Errorf("partial snapshot = %+v", recs)
	}
}

// TestFlightRecorderConcurrent interleaves Record and Snapshot across
// goroutines; under -race this proves the ring is race-clean, and every
// snapshot must hold only intact records (Frame encodes the writer and
// sequence, so a torn record would show an impossible pair).
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	const writers, per = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n := g*per + i
				f.Record(FrameRecord{Frame: n, Beta: float64(n)})
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, rec := range f.Snapshot() {
					if rec.Beta != float64(rec.Frame) {
						t.Errorf("torn record: frame %d beta %v", rec.Frame, rec.Beta)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := f.idx.Load(); got != writers*per {
		t.Errorf("%d records fed, want %d", got, writers*per)
	}
}

func TestFlightRecorderWriteJSON(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(FrameRecord{Frame: 7, TargetBeta: 0.4, Beta: 0.5, Range: 224, PlanCached: true, Workers: 3, Seconds: 0.002})
	var sb strings.Builder
	if err := f.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var recs []FrameRecord
	if err := json.Unmarshal([]byte(sb.String()), &recs); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, sb.String())
	}
	if len(recs) != 1 || recs[0] != (FrameRecord{Frame: 7, TargetBeta: 0.4, Beta: 0.5, Range: 224, PlanCached: true, Workers: 3, Seconds: 0.002}) {
		t.Errorf("round-trip = %+v", recs)
	}
	for _, key := range []string{`"frame"`, `"target_beta"`, `"beta"`, `"range"`, `"plan_cached"`, `"workers"`, `"seconds"`} {
		if !strings.Contains(sb.String(), key) {
			t.Errorf("JSON output missing %s:\n%s", key, sb.String())
		}
	}
	// Zero-valued flags are omitted so dumps stay scannable.
	if strings.Contains(sb.String(), "cut_snap") {
		t.Errorf("zero cut_snap flag serialized:\n%s", sb.String())
	}
}

// TestDisabledTelemetryOverheadGuard is bench-guard's counterpart to
// TestNilSinkOverheadGuard for the flags this PR added to the frame hot
// path: with no flight recorder installed and no SLO window attached, a
// frame's worth of telemetry sites (one Flight() nil check, one
// histogram Observe carrying the window nil check) must stay
// allocation-free and within noise.
func TestDisabledTelemetryOverheadGuard(t *testing.T) {
	prev := SetFlightRecorder(nil)
	defer SetFlightRecorder(prev)
	h := NewRegistry().Histogram("guard.frame.seconds", LatencyBuckets())
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rec := Flight(); rec != nil {
				rec.Record(FrameRecord{Frame: i})
			}
			h.Observe(0.001)
		}
	})
	if perOp := res.NsPerOp(); perOp > 2000 {
		t.Errorf("disabled-path telemetry overhead %d ns per frame-worth of sites; want <= 2000", perOp)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("disabled-path telemetry allocates %d objects/op; want 0\n"+
			"the disabled path runs these //hebs:noalloc functions — re-check with `go run ./cmd/hebsvet -v`:\n%s",
			allocs, noallocSuspects(t))
	}
}

func TestGlobalFlightRecorder(t *testing.T) {
	prev := SetFlightRecorder(nil)
	defer SetFlightRecorder(prev)
	if Flight() != nil {
		t.Fatal("recorder enabled after SetFlightRecorder(nil)")
	}
	f := NewFlightRecorder(2)
	if got := SetFlightRecorder(f); got != nil {
		t.Errorf("previous recorder = %v, want nil", got)
	}
	if Flight() != f {
		t.Error("Flight() did not return the installed recorder")
	}
	if got := SetFlightRecorder(prev); got != f {
		t.Errorf("swap returned %v, want the installed recorder", got)
	}
}
