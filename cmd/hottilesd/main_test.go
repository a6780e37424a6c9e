package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hottiles "repro"
	"repro/internal/gen"
	"repro/internal/hotcore"
	"repro/internal/obs"
	"repro/internal/planstore"
)

// testConfig is a daemon configuration small enough for unit tests: a
// 4-scale SPADE-Sextans with 64×64 tiles and a permissive gate.
func testConfig() config {
	a, _ := hottiles.ParseArch("spade-sextans:4")
	a.TileH, a.TileW = 64, 64
	return config{
		archName:   "spade-sextans:4",
		arch:       a,
		stratName:  "hottiles",
		strategy:   hottiles.StrategyHotTiles,
		kernelName: "spmm",
		kernel:     hottiles.KernelSpMM,
		opsPerMAC:  2,
		seed:       1,
		maxUpload:  16 << 20,
		reqTimeout: 30 * time.Second,
		store:      planstore.Config{MaxActive: 2, MaxQueue: 8},
	}
}

// matrixBytes renders a synthetic matrix as MatrixMarket upload bytes.
func matrixBytes(t *testing.T, seed int64, n, nnz int) []byte {
	t.Helper()
	m := gen.Uniform(rand.New(rand.NewSource(seed)), n, nnz)
	var buf bytes.Buffer
	if err := hottiles.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postPlan(t *testing.T, client *http.Client, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := client.Post(url+"/plan", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlanRoundTrip uploads a matrix, validates the plan that comes back,
// and re-fetches it by content hash — the daemon's core contract.
func TestPlanRoundTrip(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 1, 512, 4000)
	resp := postPlan(t, ts.Client(), ts.URL, upload)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /plan: %d: %s", resp.StatusCode, body)
	}
	hash := resp.Header.Get("X-Plan-Hash")
	if len(hash) != 64 {
		t.Fatalf("bad X-Plan-Hash %q", hash)
	}
	planData, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hottiles.ReadPlan(bytes.NewReader(planData))
	if err != nil {
		t.Fatalf("served plan does not deserialize: %v", err)
	}
	if plan.Grid.N != 512 {
		t.Fatalf("plan for a %d-row matrix, uploaded 512", plan.Grid.N)
	}

	// Fetch-by-hash must serve byte-identical content.
	get, err := ts.Client().Get(ts.URL + "/plan/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan/{hash}: %d", get.StatusCode)
	}
	fetched, _ := io.ReadAll(get.Body)
	if !bytes.Equal(fetched, planData) {
		t.Fatal("fetched plan differs from the built one")
	}

	// The debug plane rides the same mux.
	metrics, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	text, _ := io.ReadAll(metrics.Body)
	for _, want := range []string{"planstore_builds", "httpd_plan_requests"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

func TestGetUnknownHash404(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/plan/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestBadUpload400(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	resp := postPlan(t, ts.Client(), ts.URL, []byte("this is not MatrixMarket"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestUploadTooLarge413(t *testing.T) {
	cfg := testConfig()
	cfg.maxUpload = 128
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	resp := postPlan(t, ts.Client(), ts.URL, matrixBytes(t, 1, 256, 2000))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	// Without a Content-Length (chunked upload) the limit trips mid-read.
	chunked := io.MultiReader(bytes.NewReader(matrixBytes(t, 1, 256, 2000)))
	resp, err = ts.Client().Post(ts.URL+"/plan", "text/plain", chunked)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked upload: status %d, want 413", resp.StatusCode)
	}
}

// TestSpilledPlanServesTheSameBytes restarts the daemon over a spill
// directory: the new process decodes the spilled plan and serves the same
// /plan bytes and the same /gnn response as the one that built it, with
// no build.
func TestSpilledPlanServesTheSameBytes(t *testing.T) {
	cfg := testConfig()
	cfg.store.Dir = t.TempDir()
	upload := matrixBytes(t, 5, 512, 4000)
	serve := func() (plan, gnn []byte, st planstore.Stats) {
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.mux)
		defer ts.Close()
		resp := postPlan(t, ts.Client(), ts.URL, upload)
		plan, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /plan: %d: %s", resp.StatusCode, plan)
		}
		return plan, gnnBody(t, ts.Client(), ts.URL, upload), s.store.Stats()
	}
	plan, gnn, st := serve()
	if st.Builds != 1 || st.SpillErrors != 0 {
		t.Fatalf("first daemon: store %+v, want one build, spilled", st)
	}
	again, gnnAgain, st := serve()
	if st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("restarted daemon: store %+v, want no build and one disk hit", st)
	}
	if !bytes.Equal(again, plan) {
		t.Fatal("the spilled plan is served with different bytes")
	}
	if !bytes.Equal(gnnAgain, gnn) {
		t.Fatalf("/gnn over the spilled plan returned %s, want %s", gnnAgain, gnn)
	}
}

// TestPlanHashCoversWireVersion pins the spill-safety rule: the content
// address covers the plan wire version, so plans cached under another
// layout are never found, and a chunked upload hashes like a sized one.
func TestPlanHashCoversWireVersion(t *testing.T) {
	cfg := testConfig()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upload := matrixBytes(t, 1, 64, 200)
	cur := s.planHash(upload)
	if cur != planKey(&cfg, hotcore.PlanWireVersion, upload) {
		t.Fatal("planHash does not use the current wire version")
	}
	if planKey(&cfg, hotcore.PlanWireVersion-1, upload) == cur {
		t.Fatal("plan hash ignores the wire version")
	}

	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/plan", "text/plain", io.MultiReader(bytes.NewReader(upload)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Hash") != cur {
		t.Fatalf("chunked upload: status %d, hash %q, want 200 and %q",
			resp.StatusCode, resp.Header.Get("X-Plan-Hash"), cur)
	}
}

// TestConcurrentUploadsCoalesce pins the batching guarantee: N identical
// concurrent uploads run the pipeline exactly once and all get the same
// plan bytes.
func TestConcurrentUploadsCoalesce(t *testing.T) {
	const followers = 7
	cfg := testConfig()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var entered sync.Once
	enteredCh := make(chan struct{})
	s.buildHook = func() {
		entered.Do(func() { close(enteredCh) })
		<-release
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 2, 512, 4000)
	bodies := make([][]byte, followers+1)
	codes := make([]int, followers+1)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp := postPlan(t, ts.Client(), ts.URL, upload)
		defer resp.Body.Close()
		codes[i] = resp.StatusCode
		bodies[i], _ = io.ReadAll(resp.Body)
	}
	wg.Add(1)
	go post(0)
	<-enteredCh // leader holds the build; everyone else must coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go post(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("uploads never coalesced: %+v", s.store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("upload %d got different plan bytes", i)
		}
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("pipeline ran %d times for identical uploads, want 1 (%+v)", st.Builds, st)
	}
	if _, err := hottiles.ReadPlan(bytes.NewReader(bodies[0])); err != nil {
		t.Fatalf("shared plan invalid: %v", err)
	}
}

// TestConcurrentBuildsMatchSerial: distinct uploads that build at the same
// time, one slot each, get the same plan bytes as each upload built with
// no other request in flight. The bodies span two shape classes, two
// seeds each: a small matrix parsed and sorted in one chunk, and one with
// over 65,536 nonzeros in a body over 512 KiB, whose parse, sort and
// tiling fan out on the shared par pool.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	bodies := [][]byte{
		matrixBytes(t, 61, 512, 4000),
		matrixBytes(t, 62, 512, 4000),
		matrixBytes(t, 63, 1024, 70000),
		matrixBytes(t, 64, 1024, 70000),
	}
	n := len(bodies)
	plan := func(s *server, body []byte) []byte {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("POST /plan: status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	cfg := testConfig()
	cfg.store = planstore.Config{MaxActive: n}
	conc, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every build waits at the start until all n are in flight, so the
	// pipelines overlap; the timeout keeps a slot shortage from hanging.
	var entered atomic.Int32
	all := make(chan struct{})
	conc.buildHook = func() {
		if int(entered.Add(1)) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
		}
	}
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = plan(conc, bodies[i])
		}()
	}
	wg.Wait()
	select {
	case <-all:
	default:
		t.Fatalf("only %d of %d builds were in flight at once", entered.Load(), n)
	}

	cfg.store = planstore.Config{MaxActive: 1}
	serial, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		want := plan(serial, body)
		if !bytes.Equal(got[i], want) {
			t.Fatalf("upload %d: concurrent build returned %d plan bytes that differ from the %d of a serial build",
				i, len(got[i]), len(want))
		}
	}
	if st := conc.store.Stats(); st.Builds != int64(n) {
		t.Fatalf("concurrent store ran %d builds, want %d", st.Builds, n)
	}
}

// TestQueueOverflow429 pins backpressure: with one build slot and no
// queue, a second distinct upload is refused with 429 and a positive
// integer Retry-After while the first build is still running.
func TestQueueOverflow429(t *testing.T) {
	cfg := testConfig()
	cfg.store = planstore.Config{MaxActive: 1, MaxQueue: -1}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	enteredCh := make(chan struct{})
	var entered sync.Once
	s.buildHook = func() {
		entered.Do(func() { close(enteredCh) })
		<-release
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postPlan(t, ts.Client(), ts.URL, matrixBytes(t, 3, 512, 4000))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first upload: status %d", resp.StatusCode)
		}
	}()
	<-enteredCh // the only build slot is now held

	resp := postPlan(t, ts.Client(), ts.URL, matrixBytes(t, 4, 256, 2000))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("second upload: status %d: %s, want 429", resp.StatusCode, body)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
	if busy := s.store.Stats().Rejected; busy != 1 {
		t.Fatalf("store rejected %d, want 1", busy)
	}
	close(release)
	wg.Wait()
}

// TestRequestTimeout504: a build that outlives the per-request deadline
// comes back as 504, and the pipeline stops at the next stage boundary.
func TestRequestTimeout504(t *testing.T) {
	cfg := testConfig()
	cfg.reqTimeout = 50 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.buildHook = func() { time.Sleep(300 * time.Millisecond) }
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	resp := postPlan(t, ts.Client(), ts.URL, matrixBytes(t, 5, 256, 2000))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s, want 504", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrains is the SIGTERM path minus the signal: an
// upload whose build is in flight when the drain starts still gets its
// complete plan, and the listener refuses new connections afterwards.
// main wires SIGINT/SIGTERM to exactly this obs.GracefulStop call.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	enteredCh := make(chan struct{})
	var entered sync.Once
	s.buildHook = func() {
		entered.Do(func() { close(enteredCh) })
		time.Sleep(200 * time.Millisecond)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.mux}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/plan", "text/plain",
			bytes.NewReader(matrixBytes(t, 6, 512, 4000)))
		if err != nil {
			done <- result{-1, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, body}
	}()
	<-enteredCh // request is mid-build; now drain

	if err := obs.GracefulStop(srv, 10*time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	got := <-done
	if got.code != http.StatusOK {
		t.Fatalf("in-flight upload during drain: status %d: %s", got.code, got.body)
	}
	if _, err := hottiles.ReadPlan(bytes.NewReader(got.body)); err != nil {
		t.Fatalf("drained response is not a valid plan: %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}
