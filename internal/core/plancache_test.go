package core

import (
	"sync"
	"testing"

	"hebs/internal/driver"
	"hebs/internal/histogram"
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

// TestPlanShardsExactMatch: a stored plan is returned only for the
// exact (bins, N, range, segments, equalizer, driver) key — any
// deviation is a miss, never a wrong plan. The driver config matches
// by value, not by pointer.
func TestPlanShardsExactMatch(t *testing.T) {
	s := newPlanShards()
	h := histWithSeed(1)
	plan := &Plan{Range: 200}
	hash := planHash(h, 200, 8, EqualizerGHE)
	s.store(hash, h, 200, 8, nil, EqualizerGHE, plan)

	if got := s.lookup(hash, h, 200, 8, nil, EqualizerGHE); got != plan {
		t.Fatal("exact key did not hit")
	}
	if got := s.lookup(planHash(h, 201, 8, EqualizerGHE), h, 201, 8, nil, EqualizerGHE); got != nil {
		t.Error("different range hit")
	}
	if got := s.lookup(planHash(h, 200, 9, EqualizerGHE), h, 200, 9, nil, EqualizerGHE); got != nil {
		t.Error("different segment budget hit")
	}
	h2 := histWithSeed(2)
	if got := s.lookup(planHash(h2, 200, 8, EqualizerGHE), h2, 200, 8, nil, EqualizerGHE); got != nil {
		t.Error("different histogram hit")
	}
	// Same hash, different bins (forced collision): the full-bins
	// compare must reject it.
	h3 := histWithSeed(1)
	h3.Bins[7]++
	h3.Bins[9]--
	if got := s.lookup(hash, h3, 200, 8, nil, EqualizerGHE); got != nil {
		t.Error("forced hash collision returned a foreign plan")
	}

	cfg := driver.DefaultConfig
	if got := s.lookup(hash, h, 200, 8, &cfg, EqualizerGHE); got != nil {
		t.Error("driver-less plan served to a driver lookup")
	}
	drvPlan := &Plan{Range: 200}
	s.store(hash, h, 200, 8, &cfg, EqualizerGHE, drvPlan)
	same := driver.DefaultConfig
	if got := s.lookup(hash, h, 200, 8, &same, EqualizerGHE); got != drvPlan {
		t.Error("equal driver config behind another pointer did not hit")
	}
	cfg.Vdd = 5
	if got := s.lookup(hash, h, 200, 8, &cfg, EqualizerGHE); got != nil {
		t.Error("mutated driver config hit the plan stored before the change")
	}
	if got := s.lookup(hash, h, 200, 8, nil, EqualizerGHE); got != plan {
		t.Error("driver-less lookup lost its own plan")
	}
}

// TestPlanShardsEvictionAndMetrics: overfilling one stripe evicts LRU
// entries, counts evictions on that shard's counter, and keeps the
// global entries gauge consistent.
func TestPlanShardsEvictionAndMetrics(t *testing.T) {
	s := newPlanShards()
	sh := &s.shards[3]
	hits0, misses0, evict0 := sh.hits.Value(), sh.misses.Value(), sh.evictions.Value()

	// Craft hashes that land on shard 3 (top 4 bits = 3) while keeping
	// per-entry keys distinct via the range argument.
	const shardHash = uint64(3) << 60
	h := histWithSeed(5)
	for i := 0; i < planShardCap+4; i++ {
		s.store(shardHash, h, 2+i, 8, nil, EqualizerGHE, &Plan{Range: 2 + i})
	}
	if got := len(sh.entries); got != planShardCap {
		t.Fatalf("shard holds %d entries, want cap %d", got, planShardCap)
	}
	if got := sh.evictions.Value() - evict0; got != 4 {
		t.Errorf("evictions %d, want 4", got)
	}
	// The 4 oldest entries are gone; the newest still hit.
	if got := s.lookup(shardHash, h, 2, 8, nil, EqualizerGHE); got != nil {
		t.Error("evicted entry still served")
	}
	if got := s.lookup(shardHash, h, 2+planShardCap+3, 8, nil, EqualizerGHE); got == nil {
		t.Error("newest entry missing")
	}
	if got := sh.hits.Value() - hits0; got != 1 {
		t.Errorf("shard hits %d, want 1", got)
	}
	if got := sh.misses.Value() - misses0; got != 1 {
		t.Errorf("shard misses %d, want 1", got)
	}
	if got := s.entries.Load(); got != planShardCap {
		t.Errorf("entries gauge %d, want %d", got, planShardCap)
	}
}

// TestPlanShardsConcurrent hammers every stripe from parallel
// goroutines — the -race leg of the sharded-cache acceptance.
func TestPlanShardsConcurrent(t *testing.T) {
	s := newPlanShards()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := histWithSeed(i % 23)
				r := 2 + (i+w)%250
				hash := planHash(h, r, 8, EqualizerGHE)
				if s.lookup(hash, h, r, 8, nil, EqualizerGHE) == nil {
					s.store(hash, h, r, 8, nil, EqualizerGHE, &Plan{Range: r})
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineCacheTiers: caching is shared or off — PlanCacheSize >= 0
// joins the shared sharded cache (plans flow between engines), < 0
// disables it.
func TestEngineCacheTiers(t *testing.T) {
	for _, size := range []int{0, 4} {
		if e := NewEngine(EngineOptions{PlanCacheSize: size}); e.planShared != globalPlanCache {
			t.Fatalf("PlanCacheSize %d did not select the shared tier", size)
		}
	}
	if disabled := NewEngine(EngineOptions{PlanCacheSize: -1}); disabled.planShared != nil {
		t.Fatal("negative PlanCacheSize did not disable caching")
	}
}
