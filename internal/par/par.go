// Package par provides the shared bounded worker pool and the per-key
// singleflight cache that parallelize the analytical model, the tiler, and
// the experiment harness. The pool is sized by GOMAXPROCS (overridable for
// tests and benchmarks via SetWorkers) and is safe to use from nested
// parallel sections: the calling goroutine always participates in its own
// fan-out, and extra goroutines join only while the global budget has
// slack, so recursive ForEach calls can never deadlock and total
// concurrency stays near the pool size.
//
// Determinism contract: ForEach/Chunks run items concurrently in an
// unspecified order; callers keep results bit-identical to a serial
// execution by having each item write only its own output slot and by
// performing all reductions serially afterwards, in the original order.
package par

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool observability: spawned counts every extra goroutine ever started for
// a fan-out; depth mirrors the current extra-goroutine level (its .max is
// the deepest concurrent fan-out of the run).
var (
	poolSpawned = obs.NewCounter("par.pool.spawned")
	poolDepth   = obs.NewGauge("par.pool.depth")
)

// timeline is the pool's optional event recorder. When set, every fan-out
// records an enqueue instant, each participant (the caller and any extra
// goroutines) records the wall-clock slice it spent draining items, and
// acquire/release sample the extra-goroutine depth. A nil timeline costs
// one atomic load per fan-out.
var timeline atomic.Pointer[obs.Timeline]

// SetTimeline attaches (or, with nil, detaches) the event recorder the
// pool reports to. Safe to call while fan-outs are running: in-flight
// participants keep the recorder they started with.
func SetTimeline(tl *obs.Timeline) { timeline.Store(tl) }

// poolTrack is the timeline row carrying pool-wide events (enqueues and
// depth samples); participant slices land on per-slot rows.
const poolTrack = "par/pool"

// sampleDepth records the extra-goroutine level after an acquire/release.
func sampleDepth(tl *obs.Timeline, depth int32) {
	if tl == nil {
		return
	}
	tl.Append(obs.Event{
		TS: tl.Now(), Track: tl.TrackID(poolTrack), Name: -1,
		Kind: obs.EvQueueDepth, Value: float64(depth),
	})
}

// override holds the SetWorkers value; 0 means "use GOMAXPROCS".
var override atomic.Int32

// extra counts the pool goroutines currently running beyond the callers
// themselves; it is bounded by Workers()-1.
var extra atomic.Int32

// Workers returns the fan-out bound: the SetWorkers override when one is
// set, otherwise GOMAXPROCS.
func Workers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the pool size (n <= 0 restores the GOMAXPROCS
// default) and returns the previous override so callers can restore it:
//
//	defer par.SetWorkers(par.SetWorkers(1))
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(override.Swap(int32(n)))
}

// depthPubMu serializes poolDepth publications. Without it, a goroutine
// preempted between its CAS on extra and its gauge Set can publish a stale
// depth over a newer one (acquire CASes 0→1, a racing release publishes 0,
// the acquire's delayed Set then leaves the gauge stuck at 1 while the pool
// is idle). Acquires and releases happen once per participant per fan-out,
// not per item, so a mutex here is off the hot path.
var depthPubMu sync.Mutex

// publishDepth records the pool depth into the gauge and timeline. post is
// the depth the caller's own CAS just produced — published first so the
// .max high-water mark sees every transient peak — and the level is then
// recomputed from extra under the mutex, so a delayed publisher can never
// overwrite a newer level: the last publication to run reads the freshest
// depth, and the gauge converges to extra once publishers drain.
func publishDepth(post int32) {
	depthPubMu.Lock()
	poolDepth.Set(int64(post))
	cur := extra.Load()
	poolDepth.Set(int64(cur))
	sampleDepth(timeline.Load(), cur)
	depthPubMu.Unlock()
}

// tryAcquire claims one extra-goroutine slot, returning its 1-based index
// (the depth after the claim) for timeline labeling.
func tryAcquire() (int32, bool) {
	for {
		cur := extra.Load()
		if cur >= int32(Workers()-1) {
			return 0, false
		}
		if extra.CompareAndSwap(cur, cur+1) {
			poolSpawned.Inc()
			publishDepth(cur + 1)
			return cur + 1, true
		}
	}
}

func release() {
	publishDepth(extra.Add(-1))
}

// ForEach runs fn(i) for every i in [0, n), fanning out over the worker
// pool. It returns once every call has completed. With a pool size of 1
// (or no budget) the calls run on the calling goroutine in index order.
// A single item with no timeline attached is a plain call, so a fan-out
// that degenerates to one item allocates nothing of its own.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	tl := timeline.Load()
	if n == 1 && tl == nil {
		fn(0)
		return
	}
	if tl != nil {
		tl.Append(obs.Event{
			TS: tl.Now(), Track: tl.TrackID(poolTrack), Name: -1,
			Kind: obs.EvTaskEnqueue, Arg: int64(n),
		})
	}
	var next atomic.Int64
	// work drains the shared index; slot 0 is the calling goroutine, whose
	// timeline track is "par/caller", and slot k > 0 spawned worker k's.
	work := func(slot int32) {
		t0 := tl.Now()
		drained := 0
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			fn(i)
			drained++
		}
		if tl != nil {
			track := "par/caller"
			if slot > 0 {
				track = "par/w" + strconv.Itoa(int(slot))
			}
			tl.Append(obs.Event{
				TS: t0, Dur: tl.Now() - t0, Track: tl.TrackID(track), Name: -1,
				Kind: obs.EvTaskRun, Arg: int64(drained),
			})
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		slot, ok := tryAcquire()
		if !ok {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work(slot)
		}()
	}
	work(0)
	wg.Wait()
}

// ForEachErr is ForEach for fallible work: every fn runs to completion and
// the error with the lowest index is returned (deterministic regardless of
// scheduling), or nil if all succeed.
func ForEachErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Chunks splits [0, n) into contiguous ranges and runs fn(lo, hi) for each
// on the worker pool — for per-item work too cheap to dispatch one index at
// a time. Chunk boundaries carry no semantic weight: each item must still
// write only its own slot.
func Chunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	k := Workers()
	if k > 1 {
		// Oversubscribe so uneven per-item cost still balances.
		k *= 4
	}
	if k > n {
		k = n
	}
	ForEach(k, func(ci int) {
		fn(ci*n/k, (ci+1)*n/k)
	})
}
