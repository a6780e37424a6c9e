package sim

import (
	"math"
	"testing"
)

// unitOf builds a unit from its phases — construction-side convenience for
// the engine tests.
func unitOf(flops float64, phs ...phase) unit {
	u := unit{flops: flops}
	for _, p := range phs {
		u.addPhase(p)
	}
	return u
}

// runEngine simulates the pools sharing totalBW of memory bandwidth and
// returns the makespan plus per-pool statistics.
func runEngine(pools []*pool, totalBW float64) (float64, []poolStats, error) {
	return runEngineObserved(pools, totalBW, nil, nil)
}

// runEngineTraced is runEngine with an optional bandwidth-timeline tracer.
func runEngineTraced(pools []*pool, totalBW float64, tr *tracer) (float64, []poolStats, error) {
	return runEngineObserved(pools, totalBW, tr, nil)
}

func TestEngineSingleWorkerComputeBound(t *testing.T) {
	p := &pool{name: "p", workers: 1, perWorkerBW: math.Inf(1)}
	p.units = []unit{unitOf(42, phase{compute: 2e-3, bytes: 1e3})}
	tm, stats, err := runEngine([]*pool{p}, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	// Memory finishes instantly at 100 GB/s; compute dominates.
	if math.Abs(tm-2e-3) > 1e-9 {
		t.Fatalf("time = %g, want 2e-3", tm)
	}
	if stats[0].Bytes != 1e3 || stats[0].Flops != 42 {
		t.Fatalf("stats = %+v", stats[0])
	}
	if math.Abs(stats[0].Elapsed-tm) > 1e-12 {
		t.Fatalf("elapsed %g != makespan %g", stats[0].Elapsed, tm)
	}
}

func TestEngineSingleWorkerMemoryBound(t *testing.T) {
	p := &pool{name: "p", workers: 1, perWorkerBW: 10e9}
	p.units = []unit{unitOf(0, phase{compute: 1e-6, bytes: 1e9})}
	tm, _, err := runEngine([]*pool{p}, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	// 1 GB at a 10 GB/s per-worker cap = 0.1 s.
	if math.Abs(tm-0.1) > 1e-6 {
		t.Fatalf("time = %g, want 0.1", tm)
	}
}

func TestEngineSequentialPhases(t *testing.T) {
	p := &pool{name: "p", workers: 1, perWorkerBW: 10e9}
	p.units = []unit{unitOf(0,
		phase{compute: 5e-3},              // compute-only phase
		phase{bytes: 50e6},                // memory-only phase: 5 ms at 10 GB/s
		phase{compute: 1e-3, bytes: 10e6}, // overlapped: max(1 ms, 1 ms)
	)}
	tm, _, err := runEngine([]*pool{p}, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-11e-3) > 1e-6 {
		t.Fatalf("time = %g, want 11e-3", tm)
	}
}

func TestEngineBandwidthContention(t *testing.T) {
	// Two pools each wanting 80 GB/s against a 100 GB/s system: max-min
	// gives each 50, so 1 GB each takes 0.02 s.
	a := &pool{name: "a", workers: 1, perWorkerBW: 80e9}
	a.units = []unit{unitOf(0, phase{bytes: 1e9})}
	b := &pool{name: "b", workers: 1, perWorkerBW: 80e9}
	b.units = []unit{unitOf(0, phase{bytes: 1e9})}
	tm, stats, err := runEngine([]*pool{a, b}, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-0.02) > 1e-6 {
		t.Fatalf("time = %g, want 0.02", tm)
	}
	if math.Abs(stats[0].Bytes-1e9) > 1 || math.Abs(stats[1].Bytes-1e9) > 1 {
		t.Fatalf("bytes %+v", stats)
	}
}

func TestEngineMaxMinRespectsSmallClaimant(t *testing.T) {
	// One worker capped at 10 GB/s, one at 200 GB/s, system 100 GB/s:
	// max-min grants 10 and 90.
	small := &pool{name: "small", workers: 1, perWorkerBW: 10e9}
	small.units = []unit{unitOf(0, phase{bytes: 1e9})} // 0.1 s at 10 GB/s
	big := &pool{name: "big", workers: 1, perWorkerBW: 200e9}
	big.units = []unit{unitOf(0, phase{bytes: 9e9})} // 0.1 s at 90 GB/s
	tm, _, err := runEngine([]*pool{small, big}, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-0.1) > 1e-4 {
		t.Fatalf("time = %g, want ~0.1", tm)
	}
}

func TestEnginePoolLinkCap(t *testing.T) {
	// Two workers of one pool behind a 10 GB/s link: 2 GB total takes 0.2 s
	// even though the system has 100 GB/s.
	p := &pool{name: "pcie", workers: 2, perWorkerBW: 50e9, linkBW: 10e9}
	p.units = []unit{
		unitOf(0, phase{bytes: 1e9}),
		unitOf(0, phase{bytes: 1e9}),
	}
	tm, _, err := runEngine([]*pool{p}, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-0.2) > 1e-4 {
		t.Fatalf("time = %g, want 0.2", tm)
	}
}

func TestEngineMultipleWorkersShareQueue(t *testing.T) {
	// Four units of 1 ms compute on two workers: 2 ms total.
	p := &pool{name: "p", workers: 2, perWorkerBW: math.Inf(1)}
	for i := 0; i < 4; i++ {
		p.units = append(p.units, unitOf(0, phase{compute: 1e-3}))
	}
	tm, _, err := runEngine([]*pool{p}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-2e-3) > 1e-9 {
		t.Fatalf("time = %g, want 2e-3", tm)
	}
}

func TestEngineErrors(t *testing.T) {
	p := &pool{name: "p", workers: 0}
	p.units = []unit{unitOf(0, phase{compute: 1})}
	if _, _, err := runEngine([]*pool{p}, 1e9); err == nil {
		t.Fatal("expected units-without-workers error")
	}
	if _, _, err := runEngine(nil, 0); err == nil {
		t.Fatal("expected bandwidth error")
	}
	bad := &pool{name: "bad", workers: -1}
	if _, _, err := runEngine([]*pool{bad}, 1e9); err == nil {
		t.Fatal("expected negative-workers error")
	}
}

func TestEngineEmptyPoolsFinishInstantly(t *testing.T) {
	p := &pool{name: "idle", workers: 4, perWorkerBW: 1e9}
	tm, stats, err := runEngine([]*pool{p}, 1e9)
	if err != nil || tm != 0 || stats[0].Bytes != 0 {
		t.Fatalf("tm=%g stats=%+v err=%v", tm, stats, err)
	}
}

func TestEngineZeroPhase(t *testing.T) {
	// Units with zero-cost phases must not hang the engine.
	p := &pool{name: "p", workers: 1, perWorkerBW: 1e9}
	p.units = []unit{
		unitOf(0, phase{compute: 0, bytes: 0}),
		unitOf(0, phase{compute: 1e-6}),
	}
	tm, _, err := runEngine([]*pool{p}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-1e-6) > 1e-12 {
		t.Fatalf("time = %g, want 1e-6", tm)
	}
}

func TestCacheBasics(t *testing.T) {
	c := newCache(1024, 64) // 16 lines, 8-way: 2 sets
	if c.sets != 2 || c.ways != 8 {
		t.Fatalf("geometry sets=%d ways=%d", c.sets, c.ways)
	}
	if c.access(0) {
		t.Fatal("cold miss expected")
	}
	if !c.access(0) || !c.access(63) {
		t.Fatal("hit expected within the same line")
	}
	if c.access(64) {
		t.Fatal("different line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(1024, 64) // 2 sets × 8 ways
	// Fill set 0 with 8 distinct lines (even line numbers map to set 0).
	for i := 0; i < 8; i++ {
		c.access(uint64(i * 2 * 64))
	}
	// Touch line 0 to refresh it, then insert a 9th line: the victim must
	// be line 2·64 (the LRU), not line 0.
	c.access(0)
	c.access(uint64(8 * 2 * 64))
	if !c.access(0) {
		t.Fatal("refreshed line was evicted")
	}
	if c.access(uint64(1 * 2 * 64)) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestCacheAccessRange(t *testing.T) {
	c := newCache(4096, 64)
	// A 128-byte row spanning two lines misses fully the first time.
	if got := c.accessRange(0, 128); got != 128 {
		t.Fatalf("first access missed %d bytes, want 128", got)
	}
	if got := c.accessRange(0, 128); got != 0 {
		t.Fatalf("second access missed %d bytes, want 0", got)
	}
	// Unaligned range touching three lines.
	if got := c.accessRange(32, 128); got != 64 {
		t.Fatalf("unaligned access missed %d bytes, want 64 (one new line)", got)
	}
	// Nil cache charges everything.
	var nilCache *cache
	if got := nilCache.accessRange(0, 100); got != 100 {
		t.Fatalf("nil cache missed %d, want 100", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	if newCache(0, 64) != nil || newCache(64, 0) != nil {
		t.Fatal("zero capacity must disable the cache")
	}
	if c := newCache(64, 64); c.sets != 1 {
		t.Fatalf("tiny cache sets = %d, want 1", c.sets)
	}
}

func TestMissThrough(t *testing.T) {
	// Both levels nil: full charge.
	if got := missThrough(nil, nil, 0, 100); got != 100 {
		t.Fatalf("nil/nil = %d", got)
	}
	// Shared only.
	sh := newCache(4096, 64)
	if got := missThrough(nil, sh, 0, 128); got != 128 {
		t.Fatalf("cold shared = %d", got)
	}
	if got := missThrough(nil, sh, 0, 128); got != 0 {
		t.Fatalf("warm shared = %d", got)
	}
	// Private miss that hits in shared is free.
	priv := newCache(512, 64) // tiny: 1 set × 8 ways
	sh2 := newCache(1<<20, 64)
	missThrough(priv, sh2, 0, 64) // warms shared
	// Evict line 0 from the tiny private cache.
	for i := 1; i <= 8; i++ {
		missThrough(priv, sh2, uint64(i*64), 64)
	}
	if got := missThrough(priv, sh2, 0, 64); got != 0 {
		t.Fatalf("shared should have absorbed the private miss, charged %d", got)
	}
}
