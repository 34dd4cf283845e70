// The process-wide plan cache: one mutex-guarded LRU of planCacheCap
// plans that every engine with caching enabled shares (caching is
// shared or off, see EngineOptions.PlanCacheSize). A lookup matches
// the operating point first, then the histogram — its fingerprint as
// the quick reject, then the bins in full — then the driver config by
// value, so a reused plan is guaranteed byte-identical to a recomputed
// one (the "quantization" of the histogram key is the identity —
// anything coarser would trade output equality for hit rate).
//
// Plans are immutable once built (the lazy reconstruction LUT is
// published under a sync.Once), so sharing them across engines is safe.
package core

import (
	"sync"

	"hebs/internal/driver"
	"hebs/internal/histogram"
)

// planCacheCap is the cache's LRU capacity: 512 plans (a few MB at
// ~4–8 KB per entry) covers many zone grids' and clips' working sets
// at once.
const planCacheCap = 512

// planEntry is one cached plan with its full lookup key. The scalar
// key fields lead, so a scan that rejects on them reads one cache line
// of the entry.
type planEntry struct {
	r, segments int
	eq          Equalizer
	hasDrv      bool
	hash        uint64 // bins.Fingerprint()
	n           int
	drv         driver.Config // the driver config by value; zero when !hasDrv
	bins        [histogram.Levels]int
	plan        *Plan
}

// matches reports whether e holds the plan of the lookup key. drv must
// satisfy comparableDriver.
func (e *planEntry) matches(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer) bool {
	if e.r != r || e.segments != segments || e.eq != eq || e.hasDrv != (drv != nil) ||
		e.hash != hash || e.n != h.N || e.bins != h.Bins {
		return false
	}
	return drv == nil || e.drv == *drv
}

// planCache is the LRU itself.
type planCache struct {
	mu      sync.Mutex
	entries []*planEntry // LRU order: most recently used last
}

// globalPlanCache is the one cache every caching engine joins.
var globalPlanCache = newPlanCache()

func newPlanCache() *planCache {
	gPlanCacheCapacity.Set(planCacheCap)
	return &planCache{}
}

// lookup returns the cached plan of the key (nil on a miss) and marks
// it most recently used. hash is h.Fingerprint().
func (c *planCache) lookup(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.entries) - 1; i >= 0; i-- {
		if e := c.entries[i]; e.matches(hash, h, r, segments, drv, eq) {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e.plan
		}
	}
	return nil
}

// store inserts plan under the key, evicting the least recently used
// entry when the cache is full.
func (c *planCache) store(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer, plan *Plan) {
	e := &planEntry{r: r, segments: segments, eq: eq, hash: hash, n: h.N, bins: h.Bins, plan: plan}
	if drv != nil {
		e.drv, e.hasDrv = *drv, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= planCacheCap {
		n := copy(c.entries, c.entries[1:])
		c.entries[n] = nil
		c.entries = c.entries[:n]
		mPlanCacheEvictions.Inc()
	}
	c.entries = append(c.entries, e)
	gPlanCacheEntries.Set(float64(len(c.entries)))
}
