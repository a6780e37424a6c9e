package sim

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/semiring"
)

// TestExecutePanelParallelBitIdentical pins the functional-execution
// determinism argument: panels are row-disjoint and walk their tiles in
// serial (TR, TC) order, so execute/executeSDDMM produce bit-identical
// output for every worker count, per semiring — Equal, not AlmostEqual.
func TestExecutePanelParallelBitIdentical(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, m := testSetup(t, &a, 31)
	din := dense.NewRandom(rand.New(rand.NewSource(32)), m.N, a.K)

	for _, s := range []struct {
		name string
		sr   semiring.Semiring
	}{
		{"plus-times", semiring.PlusTimes()},
		{"min-plus", semiring.MinPlus()},
	} {
		prev := par.SetWorkers(1)
		want, err := execute(g, res.Hot, din, s.sr)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 8} {
			par.SetWorkers(w)
			got, err := execute(g, res.Hot, din, s.sr)
			par.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: execute with %d workers differs from serial", s.name, w)
			}
		}
	}

	prev := par.SetWorkers(1)
	wantS := executeSDDMM(g, din)
	par.SetWorkers(prev)
	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)
		gotS := executeSDDMM(g, din)
		par.SetWorkers(prev)
		if len(gotS) != len(wantS) {
			t.Fatalf("SDDMM length %d != %d", len(gotS), len(wantS))
		}
		for i := range gotS {
			if gotS[i] != wantS[i] {
				t.Fatalf("SDDMM with %d workers differs at %d", w, i)
			}
		}
	}
}

// TestRunnerReuseMatchesFresh drives one Runner through a randomized
// sequence of (matrix, architecture, kernel) runs and compares every result
// against a fresh sim.Run: reused pool arrays, reset cache models, and the
// recycled engine must be observationally invisible.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	archs := []arch.Arch{
		scaledArch(arch.SpadeSextans(4), 64),
		scaledArch(arch.PIUMA(), 64),
	}
	r := &Runner{}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 6; trial++ {
		a := archs[trial%len(archs)]
		g, res, m := testSetup(t, &a, int64(40+trial))
		din := dense.NewRandom(rng, m.N, a.K)
		opts := Options{}
		if trial%3 == 1 {
			opts.Kernel = model.KernelSDDMM
		}
		if trial%3 == 2 {
			opts.Serial = true
		}
		want, err := Run(g, res.Hot, &a, din, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{}
		if err := r.RunInto(got, g, res.Hot, &a, din, opts); err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time || got.MergeTime != want.MergeTime ||
			got.HotElapsed != want.HotElapsed || got.ColdElapsed != want.ColdElapsed ||
			got.HotBytes != want.HotBytes || got.ColdBytes != want.ColdBytes ||
			got.HotFlops != want.HotFlops || got.ColdFlops != want.ColdFlops {
			t.Fatalf("trial %d: reused Runner stats %+v != fresh %+v", trial, got, want)
		}
		switch {
		case want.Output != nil:
			if got.Output == nil || !got.Output.Equal(want.Output) {
				t.Fatalf("trial %d: reused Runner output differs", trial)
			}
		case want.SDDMM != nil:
			if len(got.SDDMM) != len(want.SDDMM) {
				t.Fatalf("trial %d: SDDMM length mismatch", trial)
			}
			for i := range want.SDDMM {
				if got.SDDMM[i] != want.SDDMM[i] {
					t.Fatalf("trial %d: SDDMM differs at %d", trial, i)
				}
			}
		}
	}
}

// TestRunnerRunAllocs extends the zero-alloc pin from a single engine
// step to a whole reused run: once a Runner has warmed up on a (grid,
// arch) shape, a timing-only RunInto performs zero heap allocations — pool
// construction, the cold builder's cache replay (through the shared L2 on
// CPU+DSA), and the event loop all run on scratch. A functional SDDMM run
// sizes its one output slice per run, so there the pin is that the count
// does not grow with the input.
func TestRunnerRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a     arch.Arch
		opts  Options
		exact bool // 0 allocs; otherwise the count at tile 64 and 128 agree
	}{
		{"spade-sextans", arch.SpadeSextans(4), Options{SkipFunctional: true}, true},
		{"cpu-dsa-shared-l2", arch.CPUDSA(), Options{SkipFunctional: true}, true},
		{"sddmm-functional", arch.SpadeSextans(4), Options{Kernel: model.KernelSDDMM}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.exact {
				// The functional kernel fans out on the par pool, whose
				// allocations vary with scheduling; one worker runs it inline.
				defer par.SetWorkers(par.SetWorkers(1))
			}
			measure := func(tileSize int) float64 {
				a := scaledArch(tc.a, tileSize)
				g, res, m := testSetup(t, &a, 41)
				var din *dense.Matrix
				if !tc.opts.SkipFunctional {
					din = dense.NewRandom(rand.New(rand.NewSource(42)), m.N, a.K)
				}
				r := &Runner{}
				var out Result
				run := func() {
					if err := r.RunInto(&out, g, res.Hot, &a, din, tc.opts); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					run()
				}
				return testing.AllocsPerRun(50, run)
			}
			small := measure(64)
			if tc.exact {
				if small != 0 {
					t.Fatalf("warm RunInto allocated %v times per run, want 0", small)
				}
				return
			}
			if large := measure(128); large != small {
				t.Fatalf("warm RunInto allocated %v times per run at tile 64, %v at tile 128: want a count independent of the input", small, large)
			}
		})
	}
}

// TestRunnerConcurrentWithMetricsScrapes is the -race hammer: concurrent
// sim.Run callers (each drawing its own Runner from the free list, fanning
// the functional kernels out over the shared par pool) race against
// continuous /metrics scrapes (the same RegistrySnapshot path the debug
// endpoint serves). Every run must still produce the serial-reference
// output.
func TestRunnerConcurrentWithMetricsScrapes(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, m := testSetup(t, &a, 51)
	din := dense.NewRandom(rand.New(rand.NewSource(52)), m.N, a.K)
	want, err := Run(g, res.Hot, &a, din, Options{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := obs.RegistrySnapshot().WriteMetricsText(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	const goroutines, runs = 8, 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				r, err := Run(g, res.Hot, &a, din, Options{})
				if err != nil {
					errs[gi] = err
					return
				}
				if r.Time != want.Time || !r.Output.Equal(want.Output) {
					t.Errorf("goroutine %d run %d: result differs under concurrency", gi, i)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// genericPlusTimes is plus-times as a hand-built Semiring: the same algebra
// through the generic row kernels, two closure calls per multiply-accumulate.
func genericPlusTimes() semiring.Semiring {
	return semiring.Semiring{
		Name:      "plus-times-generic",
		Add:       func(a, b float64) float64 { return a + b },
		Mul:       func(a, b float64) float64 { return a * b },
		OpsPerMAC: 2,
	}
}

// TestRunPlusTimesRowKernelBitIdentical pins the plus-times row kernel to
// the generic closure path: functional outputs must be Equal, not merely
// close, on a COO-cold (SPADE-Sextans) and a CSR-cold (PIUMA) architecture,
// in parallel and serial pool modes, with one and several par workers.
func TestRunPlusTimesRowKernelBitIdentical(t *testing.T) {
	fast, slow := semiring.PlusTimes(), genericPlusTimes()
	for _, tc := range []struct {
		name string
		a    arch.Arch
	}{
		{"SPADE-Sextans", scaledArch(arch.SpadeSextans(4), 64)},
		{"PIUMA", scaledArch(arch.PIUMA(), 64)},
	} {
		g, res, m := testSetup(t, &tc.a, 21)
		din := dense.NewRandom(rand.New(rand.NewSource(22)), m.N, tc.a.K)
		for _, serial := range []bool{false, true} {
			for _, w := range []int{1, 4} {
				prev := par.SetWorkers(w)
				want, errWant := Run(g, res.Hot, &tc.a, din, Options{Serial: serial, Semiring: &slow})
				got, errGot := Run(g, res.Hot, &tc.a, din, Options{Serial: serial, Semiring: &fast})
				par.SetWorkers(prev)
				if errWant != nil || errGot != nil {
					t.Fatalf("%s: %v / %v", tc.name, errWant, errGot)
				}
				if !got.Output.Equal(want.Output) {
					d, _ := got.Output.MaxAbsDiff(want.Output)
					t.Fatalf("%s serial=%v workers=%d: plus-times row kernel differs from generic by %g",
						tc.name, serial, w, d)
				}
			}
		}
	}
}
