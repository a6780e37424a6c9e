package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	hottiles "repro"
	"repro/internal/gen"
	"repro/internal/par"
)

// Allocation budgets of one request through the daemon's mux (middleware
// included) on the serving benchmark's first class (gen "pap" at scale
// 400: 1,000 rows, 123,753 nonzeros, a 3.19 MB body) under the default
// configuration, with one par worker, replying into a writer that drops
// the body as a socket does. Each budget is the measured value plus a
// small margin; budgets only ever tighten. Measured on go1.24
// linux/amd64: the /gnn hit at 104 allocs and 4.15 MB per op (129 and
// 6.70 MB when the store held plan bytes, decoded on every hit, and the
// kernel kept two N×K buffers per layer), the /plan miss at 135 allocs and
// 7.38 MB (136 and 9.36 MB when the reply was a 1.98 MB encoded copy).
// The race runtime drops sync.Pool entries at random, so the budgets
// apply only without it.
const (
	// POST /gnn (2 layers) hitting a held plan whose unit pools are built:
	// the upload, the features, one output per layer, the response.
	gnnHitAllocsBudget = 110
	gnnHitBytesBudget  = 4_280_000
	// POST /plan missing the store: parse and preprocess; the reply
	// streams the encoding.
	planMissAllocsBudget = 142
	planMissBytesBudget  = 7_600_000
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, as a socket would: the budgets count the daemon's allocations,
// not a recorder's copy of the reply.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// serveAllocs returns allocs/op (testing.AllocsPerRun) and bytes/op (a
// runtime.MemStats delta) of serving req(i) for successive i, failing the
// test on any status but 200.
func serveAllocs(t *testing.T, s *server, req func(i int) *http.Request) (allocs, bytes float64) {
	t.Helper()
	const runs = 5
	i := 0
	serve := func() {
		w := &discardWriter{h: http.Header{}, code: http.StatusOK}
		s.mux.ServeHTTP(w, req(i))
		i++
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	allocs = testing.AllocsPerRun(runs, serve)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestServeAllocBudget pins the allocations of a /gnn hit on a held plan,
// which decodes no plan and builds no unit pools, and of a /plan miss.
func TestServeAllocBudget(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	g, _ := gen.ByShort("pap")
	m := g.Build(1, 400)
	// bodies[0] is the matrix; every other body adds one entry to it, so
	// each /plan request misses.
	bodies := make([][]byte, 12)
	for i := range bodies {
		mi := m.Clone()
		if i > 0 {
			mi.Append(int32(i), int32(2*i), 1)
			mi.SortRowMajor()
		}
		var buf bytes.Buffer
		if err := hottiles.WriteMatrixMarket(&buf, mi); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	cfg := testConfig()
	var err error
	if cfg.arch, err = hottiles.ParseArch(cfg.archName); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gnn := func(int) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/gnn", bytes.NewReader(bodies[0]))
	}
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, gnn(0)) // builds the plan and its pools
	gnnAllocs, gnnBytes := serveAllocs(t, s, gnn)
	plan := func(i int) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(bodies[1+i]))
	}
	planAllocs, planBytes := serveAllocs(t, s, plan)
	t.Logf("/gnn hit:   %.0f allocs/op, %.0f B/op", gnnAllocs, gnnBytes)
	t.Logf("/plan miss: %.0f allocs/op, %.0f B/op", planAllocs, planBytes)
	if raceEnabled {
		return
	}
	if gnnAllocs > gnnHitAllocsBudget || gnnBytes > gnnHitBytesBudget {
		t.Errorf("/gnn hit allocates %.0f times and %.0f B, budget %d and %d",
			gnnAllocs, gnnBytes, gnnHitAllocsBudget, gnnHitBytesBudget)
	}
	if planAllocs > planMissAllocsBudget || planBytes > planMissBytesBudget {
		t.Errorf("/plan miss allocates %.0f times and %.0f B, budget %d and %d",
			planAllocs, planBytes, planMissAllocsBudget, planMissBytesBudget)
	}
}
