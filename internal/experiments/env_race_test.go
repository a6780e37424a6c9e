package experiments

import (
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/tile"
)

// TestEnvConcurrentCachesSingleflight hammers the Env's caches from many
// goroutines at once and checks every caller observes the same pointer for
// the same key. On the pre-singleflight Env this fails (and trips the race
// detector): the check-then-act pattern around its map let concurrent
// callers each build and publish their own grid or run for one key.
func TestEnvConcurrentCachesSingleflight(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	e := testEnv()
	b := gen.Benchmarks()[0]
	a := arch.SpadeSextans(1)

	const goroutines = 8
	start := make(chan struct{})
	grids := make([]*tile.Grid, goroutines)
	runs := make([]*sim.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // maximize overlap between the callers
			g, err := e.Grid(b, 128)
			if err != nil {
				errs[i] = err
				return
			}
			grids[i] = g
			r, err := e.exec(a, b, partition.ColdOnly, 2)
			if err != nil {
				errs[i] = err
				return
			}
			runs[i] = r.Sim
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if grids[i] != grids[0] {
			t.Errorf("goroutine %d observed a different *tile.Grid for the same key", i)
		}
		if runs[i] != runs[0] {
			t.Errorf("goroutine %d observed a different run for the same key", i)
		}
	}
}
