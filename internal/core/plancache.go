// The process-wide plan cache. The key is an FNV-1a hash over the
// histogram bins plus the operating point, and on a hash hit the
// stored bins are compared in full, so a reused plan is guaranteed
// byte-identical to a recomputed one (the "quantization" of the
// histogram key is the identity — anything coarser would trade output
// equality for hit rate).
//
// The cache is hash-striped over planCacheShards independently locked
// LRU stripes, so zone fan-outs and concurrent engines share warm
// plans without serializing on one mutex: a 16-zone frame walks 16
// distinct histograms per frame, which thrashed the old single 8-entry
// per-engine LRU end to end. Caching is shared or off: every engine
// joins this one cache unless EngineOptions.PlanCacheSize < 0.
//
// Plans are immutable once built (the lazy reconstruction LUT is
// published atomically), so sharing them across engines is safe.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hebs/internal/driver"
	"hebs/internal/histogram"
	"hebs/internal/obs"
)

const (
	// planCacheShards is the stripe count of the process-wide plan
	// cache. A power of two (the shard index is the hash's top bits);
	// 16 stripes keep lock contention negligible for a 16-zone grid
	// fanned out over any realistic worker count.
	planCacheShards = 16

	// planShardCap is each stripe's LRU capacity. 16 × 32 = 512 plans
	// (a few MB at ~4–8 KB per entry) covers many zone grids and
	// tenants' working sets at once; eviction is per-stripe LRU.
	planShardCap = 32
)

type planEntry struct {
	hash     uint64
	bins     [histogram.Levels]int
	n        int
	r        int
	segments int
	eq       Equalizer
	drv      driver.Config // the driver config by value; zero when !hasDrv
	hasDrv   bool
	plan     *Plan
}

// planKeyMatches reports whether e matches the full lookup key —
// operating point first (cheap), then the bins in full (hash-collision
// guard). drv must satisfy comparableDriver.
func (e *planEntry) planKeyMatches(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer) bool {
	if e.hash != hash || e.n != h.N || e.r != r || e.segments != segments ||
		e.eq != eq || e.hasDrv != (drv != nil) || (drv != nil && e.drv != *drv) {
		return false
	}
	return e.bins == h.Bins
}

// planHash is FNV-1a over the bins and the operating point. The driver
// config is compared by value at lookup and not hashed.
func planHash(h *histogram.Histogram, r, segments int, eq Equalizer) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			x ^= v & 0xff
			x *= prime64
			v >>= 8
		}
	}
	for _, c := range h.Bins {
		mix(uint64(c))
	}
	mix(uint64(h.N))
	mix(uint64(r))
	mix(uint64(segments))
	mix(uint64(int64(eq)))
	return x
}

// planShard is one stripe of the process-wide cache: an LRU plus its
// own hit/miss/eviction counters (exported through the obs registry as
// core.plan_cache.shardNN.*).
type planShard struct {
	mu      sync.Mutex
	entries []*planEntry // LRU order: most recently used last

	hits, misses, evictions *obs.Counter
}

// planShards is the process-wide hash-striped plan cache.
type planShards struct {
	shards  [planCacheShards]planShard
	entries atomic.Int64 // total across stripes, mirrored into the entries gauge
}

// globalPlanCache is the shared tier every default-configured engine
// uses. Its per-shard counters are registered eagerly so the metric
// set is stable from process start.
var globalPlanCache = newPlanShards()

func newPlanShards() *planShards {
	s := &planShards{}
	for i := range s.shards {
		// Runtime-built names; they satisfy the ^[a-z][a-z0-9_.]*$
		// grammar the metricname analyzer enforces on literals.
		s.shards[i].hits = obs.NewCounter(fmt.Sprintf("core.plan_cache.shard%02d.hits_total", i))
		s.shards[i].misses = obs.NewCounter(fmt.Sprintf("core.plan_cache.shard%02d.misses_total", i))
		s.shards[i].evictions = obs.NewCounter(fmt.Sprintf("core.plan_cache.shard%02d.evictions_total", i))
	}
	gPlanCacheCapacity.Set(planCacheShards * planShardCap)
	return s
}

// shardFor picks the stripe from the hash's top bits — FNV-1a's
// multiply only carries entropy upward, so the high bits see every
// input byte while the low bits do not.
func (s *planShards) shardFor(hash uint64) *planShard {
	return &s.shards[hash>>(64-4)&(planCacheShards-1)]
}

func (s *planShards) lookup(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer) *Plan {
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := len(sh.entries) - 1; i >= 0; i-- {
		e := sh.entries[i]
		if !e.planKeyMatches(hash, h, r, segments, drv, eq) {
			continue
		}
		copy(sh.entries[i:], sh.entries[i+1:])
		sh.entries[len(sh.entries)-1] = e
		sh.hits.Inc()
		return e.plan
	}
	sh.misses.Inc()
	return nil
}

func (s *planShards) store(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer, plan *Plan) {
	e := &planEntry{
		hash: hash, bins: h.Bins, n: h.N,
		r: r, segments: segments, eq: eq,
		plan: plan,
	}
	if drv != nil {
		e.drv, e.hasDrv = *drv, true
	}
	sh := s.shardFor(hash)
	sh.mu.Lock()
	if len(sh.entries) >= planShardCap {
		n := copy(sh.entries, sh.entries[1:])
		sh.entries = sh.entries[:n]
		sh.evictions.Inc()
		s.entries.Add(-1)
	}
	sh.entries = append(sh.entries, e)
	sh.mu.Unlock()
	gPlanCacheEntries.Set(float64(s.entries.Add(1)))
}
