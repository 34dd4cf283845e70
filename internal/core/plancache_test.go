package core

import (
	"context"
	"sync"
	"testing"

	"hebs/internal/driver"
	"hebs/internal/histogram"
	"hebs/internal/obs"
	"hebs/internal/sipi"
)

// histWithSeed builds a deterministic histogram distinct per seed.
func histWithSeed(seed int) *histogram.Histogram {
	h := &histogram.Histogram{}
	for i := range h.Bins {
		h.Bins[i] = (i*31 + seed*97) % 251
		h.N += h.Bins[i]
	}
	return h
}

// TestPlanCacheExactMatch: a stored plan is returned only for the
// exact (bins, N, range, segments, equalizer, driver) key — any
// deviation is a miss, never a wrong plan. The driver config matches
// by value, not by pointer.
func TestPlanCacheExactMatch(t *testing.T) {
	c := newPlanCache()
	h := histWithSeed(1)
	plan := &Plan{Range: 200}
	hash := h.Fingerprint()
	c.store(hash, h, 200, 8, nil, EqualizerGHE, plan)

	if got := c.lookup(hash, h, 200, 8, nil, EqualizerGHE); got != plan {
		t.Fatal("exact key did not hit")
	}
	if got := c.lookup(hash, h, 201, 8, nil, EqualizerGHE); got != nil {
		t.Error("different range hit")
	}
	if got := c.lookup(hash, h, 200, 9, nil, EqualizerGHE); got != nil {
		t.Error("different segment budget hit")
	}
	if got := c.lookup(hash, h, 200, 8, nil, EqualizerBBHE); got != nil {
		t.Error("different equalizer hit")
	}
	h2 := histWithSeed(2)
	if got := c.lookup(h2.Fingerprint(), h2, 200, 8, nil, EqualizerGHE); got != nil {
		t.Error("different histogram hit")
	}
	// Same fingerprint, different bins (forced collision): the
	// full-bins compare must reject it.
	h3 := histWithSeed(1)
	h3.Bins[7]++
	h3.Bins[9]--
	if got := c.lookup(hash, h3, 200, 8, nil, EqualizerGHE); got != nil {
		t.Error("forced fingerprint collision returned a foreign plan")
	}

	cfg := driver.DefaultConfig
	if got := c.lookup(hash, h, 200, 8, &cfg, EqualizerGHE); got != nil {
		t.Error("driver-less plan served to a driver lookup")
	}
	drvPlan := &Plan{Range: 200}
	c.store(hash, h, 200, 8, &cfg, EqualizerGHE, drvPlan)
	same := driver.DefaultConfig
	if got := c.lookup(hash, h, 200, 8, &same, EqualizerGHE); got != drvPlan {
		t.Error("equal driver config behind another pointer did not hit")
	}
	cfg.Vdd = 5
	if got := c.lookup(hash, h, 200, 8, &cfg, EqualizerGHE); got != nil {
		t.Error("mutated driver config hit the plan stored before the change")
	}
	if got := c.lookup(hash, h, 200, 8, nil, EqualizerGHE); got != plan {
		t.Error("driver-less lookup lost its own plan")
	}
}

// TestZonePlansKeyedApartFromLadderPlans: a zone plan of a multi-zone
// grid and an m = 10 ladder plan for the same histogram and range are
// two cache entries, and the zone plan holds no breakpoint list (a
// 256-point list per cached zone plan would grow the shared cache's
// footprint by about 4 KB an entry).
func TestZonePlansKeyedApartFromLadderPlans(t *testing.T) {
	img, err := sipi.Generate("lena", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	h := histogram.Of(img)
	const r = 150
	ladder, _, err := eng.planFor(ctx, nil, h, r, driver.DefaultConfig.Sources, nil, EqualizerGHE)
	if err != nil {
		t.Fatal(err)
	}
	zone, _, err := eng.planFor(ctx, nil, h, r, digitalPlan, nil, EqualizerGHE)
	if err != nil {
		t.Fatal(err)
	}
	if zone == ladder {
		t.Fatal("the zone lookup was served the ladder plan")
	}
	if zone.Breakpoints != nil {
		t.Errorf("zone plan holds %d breakpoints, want none", len(zone.Breakpoints))
	}
	if *zone.Lambda != *zone.Exact.LUT {
		t.Error("zone plan's Λ is not Φ's quantized LUT")
	}
	if len(ladder.Breakpoints) == 0 || len(ladder.Breakpoints) > driver.DefaultConfig.Sources+1 {
		t.Errorf("ladder plan holds %d breakpoints, want 2..%d", len(ladder.Breakpoints), driver.DefaultConfig.Sources+1)
	}
	hash := h.Fingerprint()
	if got := eng.plans.lookup(hash, h, r, digitalPlan, nil, EqualizerGHE); got != zone {
		t.Error("zone plan is not cached under its own key")
	}
	if got := eng.plans.lookup(hash, h, r, driver.DefaultConfig.Sources, nil, EqualizerGHE); got != ladder {
		t.Error("ladder plan is not cached under its own key")
	}
}

// TestPlanCacheEvictionAndMetrics: overfilling the cache evicts the
// least recently used entries, counts each eviction and keeps the
// entries gauge at the capacity. A lookup hit refreshes its entry.
func TestPlanCacheEvictionAndMetrics(t *testing.T) {
	reg := obs.Default()
	evictions := reg.Counter("core.plan_cache.evictions_total")
	entries := reg.Gauge("core.plan_cache.entries")
	c := newPlanCache()
	if got := reg.Gauge("core.plan_cache.capacity").Value(); got != planCacheCap {
		t.Errorf("capacity gauge %v, want %d", got, planCacheCap)
	}
	evict0 := evictions.Value()

	// Distinct keys by segment budget: every entry shares one histogram.
	h := histWithSeed(5)
	hash := h.Fingerprint()
	for i := 0; i < planCacheCap; i++ {
		c.store(hash, h, 100, 1+i, nil, EqualizerGHE, &Plan{Range: 100})
	}
	if c.lookup(hash, h, 100, 1, nil, EqualizerGHE) == nil {
		t.Fatal("oldest entry missing before the cache overflowed")
	}
	// Entry 1 is now most recently used, so the next 4 stores evict
	// entries 2..5.
	for i := planCacheCap; i < planCacheCap+4; i++ {
		c.store(hash, h, 100, 1+i, nil, EqualizerGHE, &Plan{Range: 100})
	}
	if got := len(c.entries); got != planCacheCap {
		t.Fatalf("cache holds %d entries, want cap %d", got, planCacheCap)
	}
	if got := evictions.Value() - evict0; got != 4 {
		t.Errorf("evictions %d, want 4", got)
	}
	if got := entries.Value(); got != planCacheCap {
		t.Errorf("entries gauge %v, want %d", got, planCacheCap)
	}
	for seg := 2; seg <= 5; seg++ {
		if c.lookup(hash, h, 100, seg, nil, EqualizerGHE) != nil {
			t.Errorf("evicted entry (segments %d) still served", seg)
		}
	}
	for _, seg := range []int{1, 6, planCacheCap + 4} {
		if c.lookup(hash, h, 100, seg, nil, EqualizerGHE) == nil {
			t.Errorf("live entry (segments %d) missing", seg)
		}
	}
}

// TestPlanCacheConcurrent hammers the cache from parallel goroutines
// past its capacity — the -race leg of the cache's acceptance. Every
// hit must be the plan of its own key.
func TestPlanCacheConcurrent(t *testing.T) {
	c := newPlanCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := histWithSeed(i % 23)
				r := 2 + (i+w)%250
				hash := h.Fingerprint()
				if p := c.lookup(hash, h, r, 8, nil, EqualizerGHE); p == nil {
					c.store(hash, h, r, 8, nil, EqualizerGHE, &Plan{Range: r})
				} else if p.Range != r {
					t.Errorf("lookup at range %d returned the plan of range %d", r, p.Range)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineCacheTiers: caching is shared or off — PlanCacheSize >= 0
// joins the shared plan cache (plans flow between engines), < 0
// disables it.
func TestEngineCacheTiers(t *testing.T) {
	for _, size := range []int{0, 4} {
		if e := NewEngine(EngineOptions{PlanCacheSize: size}); e.plans != globalPlanCache {
			t.Fatalf("PlanCacheSize %d did not select the shared tier", size)
		}
	}
	if disabled := NewEngine(EngineOptions{PlanCacheSize: -1}); disabled.plans != nil {
		t.Fatal("negative PlanCacheSize did not disable caching")
	}
}
