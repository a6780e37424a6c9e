package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	hottiles "repro"
	"repro/internal/obs"
	"repro/internal/planstore"
)

func postGNN(t *testing.T, client *http.Client, url string, body []byte, query string) *http.Response {
	t.Helper()
	resp, err := client.Post(url+"/gnn"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeGNN(t *testing.T, body []byte) gnnResponse {
	t.Helper()
	var g gnnResponse
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatalf("bad /gnn response %q: %v", body, err)
	}
	return g
}

// TestGNNEndToEnd: one upload, three layers, a complete deterministic
// response — and a repeat request served from the cached plan.
func TestGNNEndToEnd(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 10, 512, 4000)
	resp := postGNN(t, ts.Client(), ts.URL, upload, "?layers=3")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gnn: %d: %s", resp.StatusCode, body)
	}
	g := decodeGNN(t, body)
	if g.Layers != 3 || len(g.LayerTimes) != 3 {
		t.Fatalf("layers = %d, %d times, want 3", g.Layers, len(g.LayerTimes))
	}
	if g.SimTotal <= 0 || len(g.OutputSHA256) != 64 || len(g.Hash) != 64 {
		t.Fatalf("incomplete response: %+v", g)
	}

	// Same upload again: the plan is cached, the response byte-identical.
	resp2 := postGNN(t, ts.Client(), ts.URL, upload, "?layers=3")
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(body, body2) {
		t.Fatal("repeat /gnn request returned a different response")
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("pipeline ran %d times for one matrix, want 1", st.Builds)
	}

	// The plan /gnn built is fetchable by hash — the endpoints share one
	// content-addressed store.
	get, err := ts.Client().Get(ts.URL + "/plan/" + g.Hash)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan/{hash} after /gnn: %d", get.StatusCode)
	}
}

// TestGNNConcurrentRequestsShareOnePlanBuild mirrors the /plan coalescing
// test: N concurrent identical /gnn requests run the preprocessing pipeline
// exactly once and all report the same output hash.
func TestGNNConcurrentRequestsShareOnePlanBuild(t *testing.T) {
	const followers = 7
	s, err := newServer(testConfig())
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

	upload := matrixBytes(t, 11, 512, 4000)
	bodies := make([][]byte, followers+1)
	codes := make([]int, followers+1)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp := postGNN(t, ts.Client(), ts.URL, upload, "?layers=2")
		defer resp.Body.Close()
		codes[i] = resp.StatusCode
		bodies[i], _ = io.ReadAll(resp.Body)
	}
	wg.Add(1)
	go post(0)
	<-enteredCh // leader holds the build open; the rest must coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go post(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %+v", s.store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	want := decodeGNN(t, bodies[0])
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if got := decodeGNN(t, bodies[i]); got.OutputSHA256 != want.OutputSHA256 {
			t.Fatalf("request %d computed a different output hash", i)
		}
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests, want 1 (%+v)",
			st.Builds, followers+1, st)
	}
}

// TestGNNPlanEndpointWarmsGNN: a plan built via POST /plan is reused by a
// later POST /gnn of the same matrix — the train-once/infer-many flow
// across endpoints.
func TestGNNPlanEndpointWarmsGNN(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	upload := matrixBytes(t, 12, 512, 4000)
	resp := postPlan(t, ts.Client(), ts.URL, upload)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /plan: %d", resp.StatusCode)
	}

	gresp := postGNN(t, ts.Client(), ts.URL, upload, "")
	body, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gnn: %d: %s", gresp.StatusCode, body)
	}
	g := decodeGNN(t, body)
	if g.Layers != 2 {
		t.Fatalf("default layers = %d, want 2", g.Layers)
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("/gnn rebuilt a plan /plan already built (%d builds)", st.Builds)
	}
}

func TestGNNBadLayers400(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	upload := matrixBytes(t, 13, 256, 2000)
	for _, q := range []string{"?layers=0", "?layers=-3", "?layers=banana", "?layers=1000"} {
		resp := postGNN(t, ts.Client(), ts.URL, upload, q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestGNNDrainUnderLoad: a /gnn request whose plan build is in flight when
// the graceful drain starts still receives its complete inference result.
func TestGNNDrainUnderLoad(t *testing.T) {
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
		resp, err := http.Post(url+"/gnn?layers=4", "text/plain",
			bytes.NewReader(matrixBytes(t, 14, 512, 4000)))
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
		t.Fatalf("in-flight /gnn during drain: status %d: %s", got.code, got.body)
	}
	g := decodeGNN(t, got.body)
	if g.Layers != 4 || len(g.LayerTimes) != 4 || g.SimTotal <= 0 || len(g.OutputSHA256) != 64 {
		t.Fatalf("drained /gnn response incomplete: %+v", g)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// perFloatSHA256 is the digest /gnn used to compute with one 8-byte Write
// per value: the oracle outputSHA256 must reproduce byte for byte.
func perFloatSHA256(values []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutputSHA256MatchesPerFloat checks the block-encoded digest against
// the per-float oracle on lengths around the block size and on the special
// values a feature matrix can hold.
func TestOutputSHA256MatchesPerFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	for _, n := range []int{0, 1, 511, 512, 513, 1024, 5000} {
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()*2 - 1
			if i%97 == 0 {
				values[i] = special[i%len(special)]
			}
		}
		if got, want := outputSHA256(values), perFloatSHA256(values); got != want {
			t.Fatalf("n=%d: outputSHA256 = %s, want %s", n, got, want)
		}
	}
}

// TestGNNOutputSHA256MatchesPerFloat recomputes a /gnn forward pass from the
// cached plan and checks the response's output_sha256 against the per-float
// oracle over that output.
func TestGNNOutputSHA256MatchesPerFloat(t *testing.T) {
	cfg := testConfig()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	resp := postGNN(t, ts.Client(), ts.URL, matrixBytes(t, 12, 512, 4000), "?layers=2")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gnn: %d: %s", resp.StatusCode, body)
	}
	g := decodeGNN(t, body)
	held, ok := s.store.Peek(context.Background(), g.Hash)
	if !ok {
		t.Fatal("plan not cached after /gnn")
	}
	plan := held.prep
	rng := rand.New(rand.NewSource(cfg.seed))
	features := hottiles.NewDense(plan.Grid.N, cfg.arch.K)
	for i := range features.Data {
		features.Data[i] = rng.Float64()*2 - 1
	}
	res, err := hottiles.RunGNNWithPlan(context.Background(), plan, &cfg.arch, features,
		hottiles.GNNConfig{Layers: 2, OpsPerMAC: cfg.opsPerMAC})
	if err != nil {
		t.Fatal(err)
	}
	if want := perFloatSHA256(res.Output.Data); g.OutputSHA256 != want {
		t.Fatalf("output_sha256 = %s, per-float oracle %s", g.OutputSHA256, want)
	}
}

// healthzStore reads the store counters an operator sees on /healthz.
func healthzStore(t *testing.T, client *http.Client, url string) planstore.Stats {
	t.Helper()
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Store planstore.Stats `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Store
}

// TestBuildThenReuseSurvivesOneOffs is the paper's build-then-reuse flow
// (§VI-B) beside one-off traffic: POST /plan builds a matrix's plan, one
// reuse request follows, and then distinct one-off uploads cycle the plan
// window twice. The reuse request promoted the plan out of the window, so
// afterwards both GET /plan/{hash} and POST /gnn still hit and the store
// counts no rebuild. Without a reuse request the plan ages out with the
// one-offs.
func TestBuildThenReuseSurvivesOneOffs(t *testing.T) {
	const cacheBytes = 1 << 20 // a 128 KiB window
	for _, reuse := range []string{"gnn", "get", "none"} {
		t.Run(reuse, func(t *testing.T) {
			cfg := testConfig()
			cfg.store.MaxBytes = cacheBytes
			s, err := newServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.mux)
			defer ts.Close()
			c := ts.Client()
			get := func(hash string) (int, []byte) {
				t.Helper()
				resp, err := c.Get(ts.URL + "/plan/" + hash)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, body
			}
			gnn := func(body []byte) {
				t.Helper()
				resp := postGNN(t, c, ts.URL, body, "")
				defer resp.Body.Close()
				if out, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /gnn: %d: %s", resp.StatusCode, out)
				}
			}
			post := func(body []byte) (string, []byte) {
				t.Helper()
				resp := postPlan(t, c, ts.URL, body)
				defer resp.Body.Close()
				plan, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /plan: %d: %s", resp.StatusCode, plan)
				}
				return resp.Header.Get("X-Plan-Hash"), plan
			}

			upload := matrixBytes(t, 30, 512, 4000)
			hash, plan := post(upload)
			switch reuse {
			case "gnn":
				gnn(upload)
			case "get":
				if code, _ := get(hash); code != http.StatusOK {
					t.Fatalf("GET /plan/{hash} right after the build: %d", code)
				}
			}
			flood := 0
			for sum := 0; sum < 2*cacheBytes/8; flood++ {
				_, once := post(matrixBytes(t, int64(100+flood), 256, 1500))
				sum += len(once)
			}

			t.Logf("plan %d bytes, %d one-offs", len(plan), flood)
			code, fetched := get(hash)
			if reuse == "none" {
				if code != http.StatusNotFound {
					t.Fatalf("GET /plan/{hash} of an unreused plan after %d one-offs: %d, want 404", flood, code)
				}
				return
			}
			if code != http.StatusOK || !bytes.Equal(fetched, plan) {
				t.Fatalf("GET /plan/{hash} after %d one-offs: %d, %d bytes; want the built plan", flood, code, len(fetched))
			}
			gnn(upload)
			st := healthzStore(t, c, ts.URL)
			if st.Builds != int64(1+flood) {
				t.Fatalf("/healthz store %+v: %d builds, want %d (no rebuild)", st, st.Builds, 1+flood)
			}
			if st.Promotions != 1 || st.WindowPlans == 0 || st.WindowPlans == st.CachedPlans {
				t.Fatalf("/healthz store %+v: want 1 promotion and one-offs in the window beside main", st)
			}
		})
	}
}

// gnnBody posts one /gnn request and returns its response body, failing
// the test on any status but 200.
func gnnBody(t *testing.T, client *http.Client, url string, upload []byte) []byte {
	t.Helper()
	resp := postGNN(t, client, url, upload, "?layers=2")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /gnn: %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestGNNHitsShareOnePoolBuild: concurrent /gnn requests that hit one held
// plan return identical responses, and the plan's unit pools are built
// exactly once — by the first request's first layer — and then hit by
// every other layer of every request, later requests included. Only the
// unit cache uses par.Cache on the /gnn path, so its process-wide
// counters count the pool builds.
func TestGNNHitsShareOnePoolBuild(t *testing.T) {
	const requests = 6
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	upload := matrixBytes(t, 15, 512, 4000)
	resp := postPlan(t, ts.Client(), ts.URL, upload)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	before := obs.Snapshot()
	bodies := make([][]byte, requests)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = gnnBody(t, ts.Client(), ts.URL, upload)
		}()
	}
	wg.Wait()
	after := obs.Snapshot()
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned %s, request 0 %s", i, bodies[i], bodies[0])
		}
	}
	misses := after["par.cache.misses"] - before["par.cache.misses"]
	hits := after["par.cache.hits"] - before["par.cache.hits"]
	if misses != 1 || hits != 2*requests-1 {
		t.Fatalf("%d concurrent 2-layer requests: %d pool builds and %d pool hits, want 1 and %d",
			requests, misses, hits, 2*requests-1)
	}
	before = obs.Snapshot()
	if again := gnnBody(t, ts.Client(), ts.URL, upload); !bytes.Equal(again, bodies[0]) {
		t.Fatalf("a later request returned %s, want %s", again, bodies[0])
	}
	if d := obs.Snapshot()["par.cache.misses"] - before["par.cache.misses"]; d != 0 {
		t.Fatalf("a later request built the pools %d more times", d)
	}
	if st := s.store.Stats(); st.Builds != 1 {
		t.Fatalf("store %+v: want the one plan build", st)
	}

	// The cold pool was built from the grid's row-major view; the held
	// plan does not keep it, so asking for it builds it again.
	held, _ := s.store.Peek(context.Background(), s.planHash(upload))
	if !slices.Contains(held.prep.Partition.Hot, false) {
		t.Fatal("test plan has no cold tile: its pools never read the row-major view")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	held.prep.Grid.RowMajor()
	runtime.ReadMemStats(&m1)
	if m1.Mallocs-m0.Mallocs < 2 {
		t.Fatal("the held plan pins its grid's row-major view")
	}
}

// TestGNNSurvivesEvictionInFlight evicts a plan from the store while a
// /gnn request that holds it is between its store hit and its forward
// pass. The request still completes, with the response a fresh build of
// the same plan gives.
func TestGNNSurvivesEvictionInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.store.MaxBytes = 8 // every plan overflows its segment: the newest one stays
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	c := ts.Client()
	upload, other := matrixBytes(t, 16, 512, 4000), matrixBytes(t, 17, 512, 4000)
	plan := func(body []byte) {
		t.Helper()
		resp := postPlan(t, c, ts.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	plan(upload)

	holding, evicted := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.gnnHook = func() {
		once.Do(func() {
			close(holding)
			<-evicted
		})
	}
	done := make(chan []byte, 1)
	go func() { done <- gnnBody(t, c, ts.URL, upload) }()
	<-holding
	// The /gnn hit promoted the plan to main; a second request for another
	// plan promotes that one too, and main keeps only its newest entry.
	plan(other)
	plan(other)
	hash := s.planHash(upload)
	if _, ok := s.store.Peek(context.Background(), hash); ok {
		t.Fatalf("plan still cached, store %+v", s.store.Stats())
	}
	close(evicted)
	got := <-done

	want := gnnBody(t, c, ts.URL, upload) // rebuilds the evicted plan
	if !bytes.Equal(got, want) {
		t.Fatalf("in-flight request over an evicted plan returned %s, a fresh build %s", got, want)
	}
	if st := s.store.Stats(); st.Builds != 3 || st.Evictions != 1 {
		t.Fatalf("store %+v: want 3 builds and the in-flight plan evicted", st)
	}
}
