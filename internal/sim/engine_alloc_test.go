package sim

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestEngineStepAllocs pins the tentpole invariant: once an engine is
// constructed, a steady-state event-loop step performs zero heap
// allocations — dispatching follow-up units, phase transitions, bandwidth
// reallocation, and active-list compaction all run on the scratch sized at
// construction.
func TestEngineStepAllocs(t *testing.T) {
	pools := benchEnginePools()
	e, err := newEngine(pools, 150e9)
	if err != nil {
		t.Fatal(err)
	}
	// Reach steady state: past the initial dispatch, with completions and
	// reallocations already exercised.
	for i := 0; i < 32; i++ {
		if !e.step(nil) {
			t.Fatal("workload drained during warm-up; enlarge the bench pools")
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		e.step(nil)
	})
	if allocs != 0 {
		t.Fatalf("engine step allocated %v times per run, want 0", allocs)
	}
}

// TestEngineStepAllocsTraced extends the zero-alloc pin to a fully
// observed step: timeline events land in the engineDeep buffer sized at
// attach time (dropping, never growing, past its capacity) and the
// step-width histogram accumulates into a LocalHist, so enabling -timeline
// does not reintroduce per-step allocation.
func TestEngineStepAllocsTraced(t *testing.T) {
	pools := benchEnginePools()
	e, err := newEngine(pools, 150e9)
	if err != nil {
		t.Fatal(err)
	}
	e.deep = newEngineDeep(obs.NewTimeline(1024), "alloc-test", pools)
	for i := 0; i < 32; i++ {
		if !e.step(nil) {
			t.Fatal("workload drained during warm-up; enlarge the bench pools")
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		e.step(nil)
	})
	if allocs != 0 {
		t.Fatalf("traced engine step allocated %v times per run, want 0", allocs)
	}
}

// randPools builds a randomized heterogeneous workload: 1-3 pools with
// mixed worker speeds, optional link caps, and units whose phases mix
// compute-only, memory-only, and overlapped stages — including zero-cost
// phases and zero-unit pools.
func randPools(rng *rand.Rand) []*pool {
	npools := 1 + rng.Intn(3)
	pools := make([]*pool, npools)
	for pi := range pools {
		p := &pool{
			name:        "p" + string(rune('0'+pi)),
			workers:     1 + rng.Intn(5),
			perWorkerBW: (1 + rng.Float64()*40) * 1e9,
		}
		if rng.Intn(2) == 0 {
			p.linkBW = (1 + rng.Float64()*60) * 1e9
		}
		if rng.Intn(3) == 0 {
			p.workerBW = make([]float64, p.workers)
			for i := range p.workerBW {
				if rng.Intn(2) == 0 {
					p.workerBW[i] = (0.5 + rng.Float64()*20) * 1e9
				}
			}
		}
		if rng.Intn(8) == 0 {
			pools[pi] = p // no units: pool idles instantly
			continue
		}
		nunits := 1 + rng.Intn(40)
		for u := 0; u < nunits; u++ {
			var phases []phase
			for np := 1 + rng.Intn(3); np > 0; np-- {
				ph := phase{}
				switch rng.Intn(4) {
				case 0:
					ph.compute = rng.Float64() * 2e-5
				case 1:
					ph.bytes = rng.Float64() * 4e6
				case 2:
					ph.compute = rng.Float64() * 2e-5
					ph.bytes = rng.Float64() * 4e6
				case 3:
					// zero-cost phase
				}
				phases = append(phases, ph)
			}
			p.units = append(p.units, unitOf(rng.Float64()*1e6, phases...))
		}
		pools[pi] = p
	}
	return pools
}

// runNaive executes the same workload recomputing the grants on every step
// — no grant-invalidation skip — and requires each step's grants to equal
// allocateNaive's, the allocate-from-scratch reference, run on a copy of
// the worker records.
func runNaive(t *testing.T, pools []*pool, totalBW float64, tr *tracer) (float64, []poolStats, error) {
	e, err := newEngine(pools, totalBW)
	if err != nil {
		return 0, nil, err
	}
	ref := make([]workerState, len(e.workers))
	for len(e.active) > 0 {
		copy(ref, e.workers)
		allocateNaive(ref, e.pools, e.totalBW)
		e.allocate()
		for wi := range e.workers {
			if got, want := e.workers[wi].grant, ref[wi].grant; got != want {
				t.Fatalf("step %d worker %d: grant %v != naive %v", e.steps, wi, got, want)
			}
		}
		e.allocValid = true
		e.step(tr)
	}
	return e.now, e.stats, nil
}

// TestEngineFastPathMatchesNaive is the incremental-allocation property
// test: on randomized pools, the scratch-based allocator with
// completion-driven grant invalidation must produce makespans, per-pool
// statistics, and per-step bandwidth grants bit-identical to the naive
// reference that recomputes the full max-min allocation every step.
func TestEngineFastPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		pools := randPools(rng)
		totalBW := (5 + rng.Float64()*200) * 1e9

		var trFast, trNaive tracer
		tmFast, stFast, errFast := runEngineTraced(pools, totalBW, &trFast)
		tmNaive, stNaive, errNaive := runNaive(t, pools, totalBW, &trNaive)
		if (errFast == nil) != (errNaive == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errFast, errNaive)
		}
		if errFast != nil {
			continue
		}
		if tmFast != tmNaive {
			t.Fatalf("trial %d: makespan %v != naive %v", trial, tmFast, tmNaive)
		}
		for pi := range stFast {
			if stFast[pi] != stNaive[pi] {
				t.Fatalf("trial %d pool %d: stats %+v != naive %+v", trial, pi, stFast[pi], stNaive[pi])
			}
		}
		if len(trFast.points) != len(trNaive.points) {
			t.Fatalf("trial %d: %d trace points != naive %d", trial, len(trFast.points), len(trNaive.points))
		}
		for i := range trFast.points {
			a, b := trFast.points[i], trNaive.points[i]
			if a.T != b.T || a.Dt != b.Dt || a.BW != b.BW {
				t.Fatalf("trial %d step %d: trace point %+v != naive %+v", trial, i, a, b)
			}
			for pi := range a.PoolBW {
				if a.PoolBW[pi] != b.PoolBW[pi] {
					t.Fatalf("trial %d step %d pool %d: grant %v != naive %v",
						trial, i, pi, a.PoolBW[pi], b.PoolBW[pi])
				}
			}
		}
	}
}

// TestAllocateMatchesNaive drives one allocation round on randomized
// demanding sets and compares the scratch-based grants against the naive
// reference exactly (no tolerance).
func TestAllocateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		pools := randPools(rng)
		totalBW := (5 + rng.Float64()*200) * 1e9
		e, err := newEngine(pools, totalBW)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newEngine(pools, totalBW)
		if err != nil {
			t.Fatal(err)
		}
		// Randomly knock some workers out of the demanding set.
		for wi := range e.workers {
			if rng.Intn(3) == 0 {
				e.workers[wi].remB = 0
				ref.workers[wi].remB = 0
			}
		}
		e.allocate()
		allocateNaive(ref.workers, ref.pools, ref.totalBW)
		for wi := range e.workers {
			if got, want := e.workers[wi].grant, ref.workers[wi].grant; got != want {
				t.Fatalf("trial %d worker %d: grant %v != naive %v", trial, wi, got, want)
			}
		}
	}
}

// allocateNaive is the original allocation routine, kept verbatim as the
// executable specification the scratch-based allocate is verified against:
// the engine property test runs whole simulations under both and asserts
// bit-identical makespans, statistics, and per-step grants.
func allocateNaive(workers []workerState, pools []*pool, totalBW float64) {
	type claimant struct {
		w  *workerState
		bw float64
	}
	var cs []claimant
	byPool := make([][]int, len(pools)) // claimant indices per pool
	demand := make([]float64, len(pools))
	for wi := range workers {
		w := &workers[wi]
		w.grant = 0
		if w.unitIdx < 0 || w.remB <= 0 {
			continue
		}
		wcap := pools[w.pool].workerCap(w.idx)
		demand[w.pool] += wcap
		byPool[w.pool] = append(byPool[w.pool], len(cs))
		cs = append(cs, claimant{w, wcap})
	}
	if len(cs) == 0 {
		return
	}
	for pi, p := range pools {
		if p.linkBW <= 0 || demand[pi] <= p.linkBW || len(byPool[pi]) == 0 {
			continue
		}
		caps := make([]float64, len(byPool[pi]))
		for j, ci := range byPool[pi] {
			caps[j] = cs[ci].bw
		}
		for j, g := range waterfillNaive(caps, p.linkBW) {
			cs[byPool[pi][j]].bw = g
		}
	}
	caps := make([]float64, len(cs))
	for i, c := range cs {
		caps[i] = c.bw
	}
	for i, g := range waterfillNaive(caps, totalBW) {
		cs[i].w.grant = g
	}
}

// waterfillNaive is the allocating reference waterfill backing
// allocateNaive.
func waterfillNaive(caps []float64, budget float64) []float64 {
	grants := make([]float64, len(caps))
	unsat := make([]int, len(caps))
	for i := range unsat {
		unsat[i] = i
	}
	remaining := budget
	for len(unsat) > 0 && remaining > 0 {
		share := remaining / float64(len(unsat))
		still := unsat[:0]
		progressed := false
		for _, i := range unsat {
			if need := caps[i] - grants[i]; need <= share {
				grants[i] = caps[i]
				remaining -= need
				progressed = true
			} else {
				still = append(still, i)
			}
		}
		if !progressed {
			for _, i := range still {
				grants[i] += share
			}
			break
		}
		unsat = still
	}
	return grants
}
