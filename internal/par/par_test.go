package par

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		defer SetWorkers(SetWorkers(workers))
		const n = 1000
		hits := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachSerialInOrder(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	var got []int
	ForEach(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial ForEach out of order: %v", got)
		}
	}
}

func TestForEachNested(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const outer, inner = 6, 50
	var total atomic.Int64
	ForEach(outer, func(i int) {
		ForEach(inner, func(j int) { total.Add(1) })
	})
	if total.Load() != outer*inner {
		t.Fatalf("nested ForEach ran %d of %d items", total.Load(), outer*inner)
	}
}

func TestForEachErrReturnsLowestIndex(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	errAt := func(i int) error { return fmt.Errorf("item %d", i) }
	err := ForEachErr(100, func(i int) error {
		if i == 17 || i == 63 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 17" {
		t.Fatalf("want the lowest-index error, got %v", err)
	}
	if err := ForEachErr(10, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestChunksCoverExactly(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		defer SetWorkers(SetWorkers(workers))
		for _, n := range []int{1, 2, 7, 100, 1001} {
			hits := make([]int32, n)
			Chunks(n, func(lo, hi int) {
				if lo >= hi {
					t.Fatalf("empty chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestPoolDepthGaugeQuiesces is the regression test for the stale-depth
// publication race: pre-fix, tryAcquire/release published the gauge with a
// plain Set after their CAS on extra, so a publisher delayed between the
// two atomics could overwrite a newer depth and leave the gauge nonzero
// after every fan-out had drained. It hammers acquire/release from
// concurrent goroutines — the windows fill most of each iteration, so on
// multicore hardware the pre-fix interleave surfaces within a few hundred
// trials — and asserts the gauge reads exactly 0 whenever the pool is
// idle. Run under `make race` this also pins the publication path's
// thread safety.
func TestPoolDepthGaugeQuiesces(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	depth := obs.NewGauge("par.pool.depth") // same process-wide gauge the pool publishes
	for trial := 0; trial < 400; trial++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					if _, ok := tryAcquire(); ok {
						release()
					} else {
						runtime.Gosched()
					}
				}
			}()
		}
		wg.Wait()
		if got := depth.Load(); got != 0 {
			t.Fatalf("trial %d: pool idle but depth gauge reads %d", trial, got)
		}
	}
	if depth.Max() < 1 {
		t.Fatal("acquires never raised the high-water mark; the test exercised nothing")
	}
}

// TestPublishDepthRecomputesLevel pins the fix deterministically: a
// publisher carrying a stale post-CAS depth must not win the level — the
// published level is recomputed from extra at publication time, while the
// stale peak still reaches the high-water mark.
func TestPublishDepthRecomputesLevel(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	depth := obs.NewGauge("par.pool.depth")
	base := depth.Max()

	// Two slots held; a delayed publisher from an older acquire (post-CAS
	// depth 1) fires late. Pre-fix semantics published its argument as the
	// level; post-fix the level must read the true current depth, 2.
	if _, ok := tryAcquire(); !ok {
		t.Fatal("no pool budget")
	}
	if _, ok := tryAcquire(); !ok {
		t.Fatal("no pool budget")
	}
	publishDepth(1) // the delayed, stale publication
	if got := depth.Load(); got != 2 {
		t.Fatalf("stale publication won: gauge reads %d, want 2", got)
	}
	release()
	release()
	if got := depth.Load(); got != 0 {
		t.Fatalf("gauge reads %d after drain, want 0", got)
	}
	if depth.Max() < base || depth.Max() < 2 {
		t.Fatalf("high-water mark %d lost the peak", depth.Max())
	}
}

func TestCacheSingleflight(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int32
	const n = 16
	gate := make(chan struct{})
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, err := c.Get("k", func() (int, error) {
				builds.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

func TestCacheCachesErrors(t *testing.T) {
	var c Cache[int, string]
	var builds int
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Get(7, func() (string, error) {
			builds++
			return "", boom
		})
		if err != boom {
			t.Fatalf("call %d: got %v, want %v", i, err, boom)
		}
	}
	if builds != 1 {
		t.Fatalf("failed build ran %d times, want 1", builds)
	}
}

func TestCacheDistinctKeysConcurrent(t *testing.T) {
	var c Cache[int, int]
	defer SetWorkers(SetWorkers(8))
	ForEach(64, func(i int) {
		v, err := c.Get(i%8, func() (int, error) { return i % 8 * 10, nil })
		if err != nil || v != i%8*10 {
			t.Errorf("key %d: got %d, %v", i%8, v, err)
		}
	})
}

// TestCacheHoldsMutexByValue pins the field that makes a copied Cache a
// go vet finding: copylocks flags any by-value copy of a struct holding a
// sync.Mutex, and the lockcopy analyzer leaves Cache copies to it. A
// pointer or an interface in that field would let copies through silently.
func TestCacheHoldsMutexByValue(t *testing.T) {
	mutex := reflect.TypeOf(sync.Mutex{})
	typ := reflect.TypeOf(Cache[string, int]{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type == mutex {
			return
		}
	}
	t.Fatalf("%v holds no sync.Mutex by value", typ)
}
