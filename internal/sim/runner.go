package sim

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/tile"
)

// Runner owns the reusable state of a simulated run: the hot/cold pools'
// unit arrays, the cold builder's nonzero and cache-model scratch, and the
// event-loop engine with its allocation scratch. A Runner amortizes all of
// it across runs — after warmup, a timing-only RunInto performs zero heap
// allocations (pinned by TestRunnerRunAllocs) — which is what sweeps
// (Env.exec, explore.IsoScale, workload.RunBatch) want: they call sim.Run
// in a loop, and sim.Run draws Runners from a package free list so every
// call site gets the reuse without a signature change.
//
// The zero Runner is ready to use; its scratch grows on first use. A
// Runner is not safe for concurrent use; use one per goroutine (the free
// list hands each concurrent sim.Run its own).
type Runner struct {
	hotPool, coldPool pool
	cold              coldScratch
	eng               engine
	one               [1]*pool
	two               [2]*pool
}

// runnerFree is the package free list sim.Run draws from. The list is
// bounded so a burst of concurrent runs cannot pin an unbounded number of
// grown scratch arenas: beyond the cap, released Runners are dropped for
// the GC.
var runnerFree struct {
	mu   sync.Mutex
	list []*Runner
}

func acquireRunner() *Runner {
	runnerFree.mu.Lock()
	defer runnerFree.mu.Unlock()
	if n := len(runnerFree.list); n > 0 {
		r := runnerFree.list[n-1]
		runnerFree.list[n-1] = nil
		runnerFree.list = runnerFree.list[:n-1]
		return r
	}
	return &Runner{}
}

func releaseRunner(r *Runner) {
	runnerFree.mu.Lock()
	defer runnerFree.mu.Unlock()
	if len(runnerFree.list) < 2*par.Workers() {
		runnerFree.list = append(runnerFree.list, r)
	}
}

// RunInto simulates executing the partitioned SpMM on architecture a into
// res, reusing the Runner's state. Results are bit-identical to a fresh
// sim.Run: pool construction over reused arrays emits the same unit
// sequence, a reset cache model behaves like a new one, and the engine's
// event loop is deterministic.
func (r *Runner) RunInto(res *Result, g *tile.Grid, hot []bool, a *arch.Arch, din *dense.Matrix, opts Options) error {
	*res = Result{}
	if err := a.Validate(); err != nil {
		return err
	}
	if len(hot) != len(g.Tiles) {
		return fmt.Errorf("sim: assignment length %d, want %d", len(hot), len(g.Tiles))
	}
	sr := semiring.PlusTimes()
	if opts.Semiring != nil {
		sr = *opts.Semiring
	}
	prm := model.Params{K: a.K, OpsPerMAC: sr.OpsPerMAC, Kernel: opts.Kernel}
	if opts.Kernel == model.KernelSpMV {
		prm.K = 1
	}
	if err := prm.Validate(); err != nil {
		return err
	}
	if !opts.SkipFunctional {
		if din == nil || din.N != g.N || din.K != prm.K {
			return fmt.Errorf("sim: Din must be %dx%d", g.N, prm.K)
		}
	}

	anyHot, anyCold := false, false
	for _, h := range hot {
		if h {
			anyHot = true
		} else {
			anyCold = true
		}
	}
	if anyHot && a.Hot.Count <= 0 {
		return fmt.Errorf("sim: hot tiles assigned but architecture %s has no hot workers", a.Name)
	}
	if anyCold && a.Cold.Count <= 0 {
		return fmt.Errorf("sim: cold tiles assigned but architecture %s has no cold workers", a.Name)
	}

	hotPool, coldPool := &r.hotPool, &r.coldPool
	if opts.Units != nil {
		up, err := opts.Units.get(g, hot, a, prm)
		if err != nil {
			return err
		}
		hotPool, coldPool = up.hot, up.cold
	} else {
		buildHotPoolInto(hotPool, g, hot, a, prm)
		buildColdPoolInto(coldPool, &r.cold, g, hot, a, prm)
	}

	var trCold, trHot, trBoth *tracer
	if opts.Trace {
		trCold, trHot, trBoth = &tracer{}, &tracer{}, &tracer{}
	}
	deepOn := opts.Timeline != nil || obs.DeepTiming()
	if opts.Serial {
		// Cold pool first, then hot, each with the full memory system. The
		// one engine is reset between the legs; its stats alias engine
		// scratch, so each leg's numbers are copied out before the next
		// reset.
		var dCold, dHot *engineDeep
		r.one[0] = coldPool
		if deepOn {
			dCold = newEngineDeep(opts.Timeline, opts.TimelineLabel, r.one[:])
		}
		if err := r.eng.reset(r.one[:], a.BWBytes); err != nil {
			return err
		}
		tCold, stats := r.eng.run(trCold, dCold)
		sCold := stats[0]
		r.one[0] = hotPool
		if deepOn {
			// The hot leg starts where the cold leg ended on the shared
			// serial clock.
			dHot = newEngineDeep(opts.Timeline, opts.TimelineLabel, r.one[:])
			dHot.baseNS = simNS(tCold)
		}
		if err := r.eng.reset(r.one[:], a.BWBytes); err != nil {
			return err
		}
		tHot, stats := r.eng.run(trHot, dHot)
		sHot := stats[0]
		res.Time = tCold + tHot
		res.ColdElapsed, res.HotElapsed = sCold.Elapsed, sHot.Elapsed
		res.ColdBytes, res.HotBytes = sCold.Bytes, sHot.Bytes
		res.ColdFlops, res.HotFlops = sCold.Flops, sHot.Flops
		if opts.Trace {
			res.Trace = append(res.Trace, trCold.points...)
			for _, pt := range trHot.points {
				pt.T += tCold
				// Relabel the single serial-hot pool as pool index 1.
				pt.PoolBW = []float64{0, pt.PoolBW[0]}
				res.Trace = append(res.Trace, pt)
			}
			for i := range res.Trace[:len(trCold.points)] {
				res.Trace[i].PoolBW = append(res.Trace[i].PoolBW, 0)
			}
		}
	} else {
		var dBoth *engineDeep
		r.two[0], r.two[1] = coldPool, hotPool
		if deepOn {
			dBoth = newEngineDeep(opts.Timeline, opts.TimelineLabel, r.two[:])
		}
		if err := r.eng.reset(r.two[:], a.BWBytes); err != nil {
			return err
		}
		t, stats := r.eng.run(trBoth, dBoth)
		if opts.Trace {
			res.Trace = trBoth.points
		}
		res.Time = t
		res.ColdElapsed, res.HotElapsed = stats[0].Elapsed, stats[1].Elapsed
		res.ColdBytes, res.HotBytes = stats[0].Bytes, stats[1].Bytes
		res.ColdFlops, res.HotFlops = stats[0].Flops, stats[1].Flops
		if anyHot && anyCold && !a.AtomicRMW && opts.Kernel != model.KernelSDDMM {
			// SDDMM outputs are disjoint per nonzero, so no merge is needed
			// even with private buffers.
			res.mergeBytes = 3 * float64(g.N) * float64(prm.K) * float64(a.Hot.ElemBytes)
			res.MergeTime = res.mergeBytes / a.BWBytes
			res.Time += res.MergeTime
		}
	}

	if !opts.SkipFunctional {
		if opts.Kernel == model.KernelSDDMM {
			res.SDDMM = executeSDDMM(g, din)
		} else {
			out, err := execute(g, hot, din, sr)
			if err != nil {
				return err
			}
			res.Output = out
		}
	}
	return nil
}
