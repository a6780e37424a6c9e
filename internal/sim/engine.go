package sim

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Engine observability: engine invocations, work units drained, and event-
// loop steps (each step advances simulated time to the next counter
// completion). Counters are bumped once per engine run, never inside the
// per-worker inner loops.
var (
	engineRuns  = obs.NewCounter("sim.engine.runs")
	engineUnits = obs.NewCounter("sim.engine.units")
	engineSteps = obs.NewCounter("sim.engine.steps")
)

// phase is one stage of a work unit: compute seconds and memory bytes that
// proceed concurrently (the engine takes the max). Work-unit generators
// express non-overlapping stages as separate phases.
type phase struct {
	compute float64 // seconds of dedicated compute
	bytes   float64 // bytes to move to/from main memory
}

// maxPhases bounds the stages of one work unit. The shipped generators emit
// one phase (fully overlapping workers) or two (stream+compute, then the
// write-back drain); the property tests go up to three.
const maxPhases = 3

// unit is a schedulable piece of work (a hot tile or a cold row chunk).
// Phases are stored inline rather than in a per-unit slice so building a
// pool of units performs no per-unit heap allocation and a Runner can reuse
// one backing array across runs.
type unit struct {
	ph    [maxPhases]phase
	nph   int32
	flops float64
}

// addPhase appends one stage to the unit.
func (u *unit) addPhase(p phase) {
	u.ph[u.nph] = p
	u.nph++
}

// unitOf builds a unit from its phases — construction-side convenience for
// the builders and tests.
func unitOf(flops float64, phs ...phase) unit {
	u := unit{flops: flops}
	for _, p := range phs {
		u.addPhase(p)
	}
	return u
}

// pool is a set of identical workers self-scheduling from a shared unit
// queue.
type pool struct {
	name        string
	workers     int
	perWorkerBW float64 // peak streaming bandwidth per worker, bytes/s
	linkBW      float64 // aggregate cap for the whole pool (e.g. PCIe); 0 = none
	// workerBW optionally overrides perWorkerBW per worker (workerBW[i] is
	// worker i's peak; missing or non-positive entries fall back to
	// perWorkerBW), for pools whose members are not identical.
	workerBW []float64
	units    []unit
}

// workerCap returns worker i's peak streaming bandwidth.
func (p *pool) workerCap(i int) float64 {
	if i < len(p.workerBW) && p.workerBW[i] > 0 {
		return p.workerBW[i]
	}
	return p.perWorkerBW
}

// poolStats aggregates a pool's observed behavior during a run.
type poolStats struct {
	Bytes   float64 // bytes moved to/from main memory
	Flops   float64
	Elapsed float64 // time from simulation start until the pool drained
}

// workerState tracks one worker's progress through its current unit.
type workerState struct {
	pool     int
	idx      int // index of this worker within its pool
	unitIdx  int // index into pool.units; -1 when idle with empty queue
	phaseIdx int
	remC     float64 // remaining compute seconds
	remB     float64 // remaining memory bytes
	grant    float64 // current bandwidth grant, bytes/s
}

const timeEps = 1e-15

// engine is one event-loop execution over a set of pools. All state the
// loop touches — worker records, the active list, and the allocation
// scratch — is sized once at construction so a steady-state step performs
// zero heap allocations (pinned by TestEngineStepAllocs). Results are
// bit-identical to the straightforward re-evaluate-everything loop: the
// only shortcuts taken are (a) idle workers leave the active list and are
// never rescanned, and (b) bandwidth grants are recomputed only when the
// demanding set could have changed (see allocValid).
type engine struct {
	pools   []*pool
	totalBW float64

	workers []workerState // all workers, pool-major (ascending pool, idx)
	active  []int32       // indices into workers with a unit, ascending
	next    []int         // next unit index per pool
	stats   []poolStats
	now     float64
	steps   int64

	// allocValid reports that the grants computed by the previous allocate
	// are still exact. Grants are a pure function of the demanding set
	// {(worker, cap)} — per-worker caps are constant for the whole run — so
	// they only change when a worker enters the set (a new phase or unit
	// with outstanding bytes) or leaves it (remB reaching zero, or going
	// idle). The advance loop clears the flag on every such transition and
	// the next step falls back to the exact computation; steps that only
	// drain compute counters skip the reallocation entirely.
	allocValid bool

	// deep is the optional timeline/deep-timing scratch (see timeline.go).
	// nil in normal runs; its buffers are sized at attach time, so traced
	// steps are as allocation-free as untraced ones.
	deep *engineDeep

	// Allocation scratch, reused every round. Claimants are gathered in
	// ascending worker order, so each pool's claimants form one contiguous
	// range of claimIdx/claimCap — per-pool link caps are applied to that
	// range in place.
	claimIdx  []int32   // worker index per claimant
	claimCap  []float64 // per-claimant peak, overwritten by link-fair shares
	grants    []float64 // waterfill output
	unsat     []int32   // waterfill worklist
	poolFrom  []int32   // first claimant index per pool this round
	poolCount []int32   // claimants per pool this round
	demand    []float64 // aggregate demand per pool this round
}

// growInts reslices s to length n, reallocating only when the capacity is
// insufficient — the engine-reset idiom that keeps a Runner's steady state
// allocation-free once its scratch has grown to the workload's size.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growStats(s []poolStats, n int) []poolStats {
	if cap(s) < n {
		return make([]poolStats, n)
	}
	return s[:n]
}

// newEngine validates the pools and builds a ready-to-step engine with all
// scratch sized for the run.
func newEngine(pools []*pool, totalBW float64) (*engine, error) {
	e := &engine{}
	if err := e.reset(pools, totalBW); err != nil {
		return nil, err
	}
	return e, nil
}

// reset validates the pools and prepares the engine for a run, reusing
// every scratch slice whose capacity suffices. A reset over pool shapes no
// larger than any earlier run performs zero heap allocations, which is what
// lets a Runner's steady state stay allocation-free (TestRunnerRunAllocs).
func (e *engine) reset(pools []*pool, totalBW float64) error {
	if totalBW <= 0 {
		return fmt.Errorf("sim: non-positive bandwidth")
	}
	total := 0
	for _, p := range pools {
		if p.workers < 0 {
			return fmt.Errorf("sim: pool %s has negative workers", p.name)
		}
		if len(p.units) > 0 && p.workers == 0 {
			return fmt.Errorf("sim: pool %s has units but no workers", p.name)
		}
		total += p.workers
	}
	e.pools = pools
	e.totalBW = totalBW
	e.workers = e.workers[:0]
	if cap(e.workers) < total {
		e.workers = make([]workerState, 0, total)
	}
	e.active = e.active[:0]
	if cap(e.active) < total {
		e.active = make([]int32, 0, total)
	}
	e.next = growInts(e.next, len(pools))
	e.stats = growStats(e.stats, len(pools))
	e.claimIdx = growInt32s(e.claimIdx, total)
	e.claimCap = growFloats(e.claimCap, total)
	e.grants = growFloats(e.grants, total)
	e.unsat = growInt32s(e.unsat, total)
	e.poolFrom = growInt32s(e.poolFrom, len(pools))
	e.poolCount = growInt32s(e.poolCount, len(pools))
	e.demand = growFloats(e.demand, len(pools))
	for i := range e.next {
		e.next[i] = 0
		e.stats[i] = poolStats{}
	}
	e.now = 0
	e.steps = 0
	e.allocValid = false
	e.deep = nil
	for pi, p := range pools {
		for w := 0; w < p.workers; w++ {
			e.workers = append(e.workers, workerState{pool: pi, idx: w, unitIdx: -1})
		}
		for ui := range p.units {
			e.stats[pi].Flops += p.units[ui].flops
		}
	}
	// Initial dispatch: hand every worker its first unit. From here on
	// workers fetch follow-up units inline at completion, so the active
	// list only ever shrinks.
	for wi := range e.workers {
		w := &e.workers[wi]
		p := pools[w.pool]
		if e.next[w.pool] < len(p.units) {
			w.unitIdx = e.next[w.pool]
			e.next[w.pool]++
			ph := p.units[w.unitIdx].ph[0]
			w.remC, w.remB = ph.compute, ph.bytes
			e.active = append(e.active, int32(wi))
		}
	}
	return nil
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

// runEngineObserved is the full-observability entry point: tr records the
// aggregate bandwidth timeline (Result.Trace), deep records per-worker
// timeline events and the step-width histogram. Either may be nil.
func runEngineObserved(pools []*pool, totalBW float64, tr *tracer, deep *engineDeep) (float64, []poolStats, error) {
	e, err := newEngine(pools, totalBW)
	if err != nil {
		return 0, nil, err
	}
	t, stats := e.run(tr, deep)
	return t, stats, nil
}

// run executes the event loop on a freshly reset engine with the optional
// observability attachments and returns the makespan plus per-pool stats
// (the stats slice aliases engine scratch; callers copy what they keep
// before the next reset).
func (e *engine) run(tr *tracer, deep *engineDeep) (float64, []poolStats) {
	e.deep = deep
	engineRuns.Inc()
	for _, p := range e.pools {
		engineUnits.Add(int64(len(p.units)))
	}
	for e.step(tr) {
	}
	engineSteps.Add(e.steps)
	e.deep.finish()
	return e.now, e.stats
}

// step advances the simulation to the next counter completion. It reports
// false once every pool has drained.
//
//hot:path
func (e *engine) step(tr *tracer) bool {
	if len(e.active) == 0 {
		return false
	}
	d := e.deep
	if !e.allocValid {
		e.allocate()
		e.allocValid = true
		if d != nil {
			d.sampleGrants(e)
		}
	}

	// Earliest next counter completion among the active workers.
	dt := math.Inf(1)
	for _, wi := range e.active {
		w := &e.workers[wi]
		if w.remC > 0 && w.remC < dt {
			dt = w.remC
		}
		if w.remB > 0 && w.grant > 0 {
			if t := w.remB / w.grant; t < dt {
				dt = t
			}
		}
	}
	if math.IsInf(dt, 1) {
		// Only zero-remaining counters: resolve completions below with
		// dt = 0.
		dt = 0
	}
	tr.record(e.now, dt, e)
	var acc []float64 // per-worker byte accumulation, nil unless a timeline is attached
	if d != nil {
		d.stepWidth.Observe(simNS(dt))
		acc = d.bytesAcc
	}

	e.steps++
	e.now += dt
	idled := false
	for _, wi := range e.active {
		w := &e.workers[wi]
		if w.remC > 0 {
			w.remC -= dt
			if w.remC < timeEps {
				w.remC = 0
			}
		}
		if w.remB > 0 && w.grant > 0 {
			moved := w.grant * dt
			if moved > w.remB {
				moved = w.remB
			}
			e.stats[w.pool].Bytes += moved
			if acc != nil {
				acc[wi] += moved
			}
			w.remB -= moved
			if w.remB < timeEps*w.grant || w.remB < 1e-9 {
				w.remB = 0
				e.allocValid = false
			}
		}
		// Phase / unit completion.
		for w.unitIdx >= 0 && w.remC == 0 && w.remB == 0 {
			e.allocValid = false
			p := e.pools[w.pool]
			u := &p.units[w.unitIdx]
			w.phaseIdx++
			if w.phaseIdx < int(u.nph) {
				ph := u.ph[w.phaseIdx]
				w.remC, w.remB = ph.compute, ph.bytes
				continue
			}
			// Unit drained; record pool progress and fetch the next one.
			e.stats[w.pool].Elapsed = e.now
			if d != nil {
				d.unitDone(int(wi), w.unitIdx, e.now)
			}
			if e.next[w.pool] < len(p.units) {
				w.unitIdx = e.next[w.pool]
				e.next[w.pool]++
				w.phaseIdx = 0
				first := p.units[w.unitIdx].ph[0]
				w.remC, w.remB = first.compute, first.bytes
			} else {
				w.unitIdx = -1
				w.grant = 0
				idled = true
				if d != nil {
					d.idle(int(wi), e.now)
				}
			}
		}
	}
	if idled {
		// Order-preserving compaction keeps the active list ascending, so
		// every later iteration order (and with it every floating-point
		// accumulation order) matches the full-scan loop bit for bit. A
		// worker idles at most once per run, so the O(active) sweep is
		// amortized free.
		keep := e.active[:0]
		for _, wi := range e.active {
			if e.workers[wi].unitIdx >= 0 {
				keep = append(keep, wi)
			}
		}
		e.active = keep
	}
	return true
}

// allocate grants memory bandwidth max-min fairly: every worker with
// outstanding bytes demands up to its per-worker peak, pools may carry an
// aggregate link cap (PCIe), and the total is bounded by the shared memory
// bandwidth. Link caps are themselves enforced max-min fairly within the
// pool: a worker demanding less than its even share of the link leaves its
// slack to the pool's other workers rather than stranding it, so a pool
// with mixed-speed members can still saturate its link.
//
// allocateNaive (engine_alloc_test.go) is the executable specification;
// this version computes the same grants (pinned bit-identically by
// TestAllocateMatchesNaive and the engine property test) without
// allocating, over the scratch sized at engine construction.
//
//hot:path
func (e *engine) allocate() {
	for pi := range e.pools {
		e.poolCount[pi] = 0
		e.demand[pi] = 0
	}
	nc := 0
	for _, wi := range e.active {
		w := &e.workers[wi]
		if w.remB <= 0 {
			w.grant = 0
			continue
		}
		wcap := e.pools[w.pool].workerCap(w.idx)
		if e.poolCount[w.pool] == 0 {
			e.poolFrom[w.pool] = int32(nc)
		}
		e.poolCount[w.pool]++
		e.demand[w.pool] += wcap
		e.claimIdx[nc] = wi
		e.claimCap[nc] = wcap
		nc++
	}
	if nc == 0 {
		return
	}
	// Enforce per-pool link caps: when a pool's aggregate demand exceeds
	// its link, replace the member caps with their max-min fair shares of
	// the link. Claimants were gathered in ascending worker order, so each
	// pool's members are the contiguous range [poolFrom, poolFrom+poolCount).
	for pi, p := range e.pools {
		if p.linkBW <= 0 || e.poolCount[pi] == 0 || e.demand[pi] <= p.linkBW {
			continue
		}
		lo, hi := e.poolFrom[pi], e.poolFrom[pi]+e.poolCount[pi]
		e.waterfill(e.claimCap[lo:hi], e.grants[lo:hi], p.linkBW)
		copy(e.claimCap[lo:hi], e.grants[lo:hi])
	}
	// Max-min waterfill against the shared memory bandwidth.
	e.waterfill(e.claimCap[:nc], e.grants[:nc], e.totalBW)
	for ci := 0; ci < nc; ci++ {
		e.workers[e.claimIdx[ci]].grant = e.grants[ci]
	}
}

// waterfill distributes budget across caps max-min fairly into grants
// (len(grants) == len(caps)): demands below the current even share are
// fully granted, and their slack is re-split among the rest until nobody
// saturates, at which point the remainder is divided evenly. The written
// grants sum to min(budget, sum(caps)). The worklist lives in e.unsat.
//
//hot:path
func (e *engine) waterfill(caps, grants []float64, budget float64) {
	unsat := e.unsat[:len(caps)]
	for i := range grants {
		grants[i] = 0
		unsat[i] = int32(i)
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
			// Nobody saturated: split what remains evenly and stop.
			for _, i := range still {
				grants[i] += share
			}
			break
		}
		unsat = still
	}
}
