package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("frames") != c {
		t.Error("re-registration did not return the same counter")
	}
	g := r.Gauge("beta")
	if g.Value() != 0 {
		t.Errorf("fresh gauge = %v, want 0", g.Value())
	}
	g.Set(0.59)
	if got := g.Value(); got != 0.59 {
		t.Errorf("gauge = %v, want 0.59", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	// Exactly-on-boundary values land in the bucket they bound
	// (inclusive upper edge), values above the top bound overflow.
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	wantCounts := []int64{2, 2, 1} // (..1]: 0.5,1  (1..2]: 1.5,2  (2..4]: 4
	for i, w := range wantCounts {
		if s.Buckets[i].Count != w {
			t.Errorf("bucket le=%v count = %d, want %d", s.Buckets[i].LE, s.Buckets[i].Count, w)
		}
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	wantSum := 0.5 + 1 + 1.5 + 2 + 4 + 4.0001 + 100
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	h.ObserveDuration(3 * time.Second)
	if got := h.Snapshot().Buckets[2].Count; got != 2 {
		t.Errorf("ObserveDuration(3s) landed wrong: bucket le=4 count %d, want 2", got)
	}
}

func TestBucketLayoutHelpers(t *testing.T) {
	lin := LinearBuckets(0, 32, 4)
	if want := []float64{32, 64, 96, 128}; !equalF(lin, want) {
		t.Errorf("LinearBuckets = %v, want %v", lin, want)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if want := []float64{1, 10, 100}; !equalF(exp, want) {
		t.Errorf("ExponentialBuckets = %v, want %v", exp, want)
	}
	lat := LatencyBuckets()
	if len(lat) != 20 || lat[0] != 10e-6 {
		t.Errorf("LatencyBuckets = %v", lat)
	}
	// The ladder must comfortably cover slow-path outliers (>= 1s) so
	// they resolve into real buckets instead of +Inf.
	if top := lat[len(lat)-1]; top < 1 {
		t.Errorf("LatencyBuckets top %v < 1s: outliers would crush into +Inf", top)
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Fatalf("latency buckets not increasing at %d: %v", i, lat)
		}
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// TestRegistryConcurrent exercises every instrument type from many
// goroutines; run with -race this verifies the layer is data-race free
// and loses no updates.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(w))
				r.Histogram("h", LinearBuckets(0, 50, 4)).Observe(float64(i))
				if i%50 == 0 {
					_ = r.Snapshot() // snapshots race against writers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter lost updates: %d, want %d", got, workers*per)
	}
	hs := r.Histogram("h", nil).Snapshot()
	if hs.Count != workers*per {
		t.Errorf("histogram count %d, want %d", hs.Count, workers*per)
	}
	var bucketTotal int64
	for _, b := range hs.Buckets {
		bucketTotal += b.Count
	}
	bucketTotal += hs.Overflow
	if bucketTotal != hs.Count {
		t.Errorf("bucket counts sum to %d, count is %d", bucketTotal, hs.Count)
	}
	wantSum := float64(workers) * float64(per*(per-1)) / 2
	if math.Abs(hs.Sum-wantSum) > 1e-6 {
		t.Errorf("histogram sum %v, want %v", hs.Sum, wantSum)
	}
}

// TestSnapshotGoldenJSON pins the -metrics-out JSON shape.
func TestSnapshotGoldenJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.frames_total").Add(3)
	r.Gauge("core.last_beta").Set(0.5)
	h := r.Histogram("core.stage.plc.seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(sb.String())
	golden := strings.TrimSpace(`
{
  "counters": {
    "core.frames_total": 3
  },
  "gauges": {
    "core.last_beta": 0.5
  },
  "histograms": {
    "core.stage.plc.seconds": {
      "count": 2,
      "sum": 0.5005,
      "buckets": [
        {
          "le": 0.001,
          "count": 1
        },
        {
          "le": 0.01,
          "count": 0
        }
      ],
      "overflow": 1
    }
  }
}`)
	if got != golden {
		t.Errorf("snapshot JSON drifted from golden shape.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
