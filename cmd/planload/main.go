// Command planload drives a running hottilesd with concurrent plan
// requests and reports the latency distribution. It generates a pool of
// synthetic matrices at mixed sizes, uploads them from -clients concurrent
// workers (each request picks a matrix round-robin, so the daemon sees a
// blend of cache hits, coalesced flights and fresh builds), records every
// request into an obs histogram, and prints p50/p90/p99 plus the daemon's
// backpressure behavior (429 counts and honored Retry-After waits).
//
//	planload -addr 127.0.0.1:8321 -clients 1000 -requests 5000
//	planload -addr 127.0.0.1:8321 -smoke        # one full round trip, exit 0/1
//
// With -json the latency summary is written in the BENCH_*.json schema so
// bin/benchdiff can compare two load runs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	hottiles "repro"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/par"
)

// reqLatency collects one observation per completed request (whatever the
// status); the final report reads it back from the registry snapshot.
var reqLatency = obs.NewHistogram("planload.request.ns")

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "hottilesd address (host:port)")
	clients := flag.Int("clients", 64, "concurrent clients")
	requests := flag.Int("requests", 0, "total requests (0 = one per client)")
	sizes := flag.String("sizes", "256,512,1024", "matrix sizes in the pool, comma-separated")
	matrices := flag.Int("matrices", 8, "distinct matrices in the pool")
	seed := flag.Int64("seed", 1, "matrix generation seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	retries := flag.Int("retries", 3, "retries per request after a 429 (honoring Retry-After)")
	smoke := flag.Bool("smoke", false, "single round trip: upload, fetch by hash, validate, scrape /metrics")
	reqID := flag.String("request-id", "", "send this X-Request-ID with the smoke upload and verify it round-trips (header + /debug/requests)")
	jsonPath := flag.String("json", "", "write the latency summary in the BENCH_*.json schema")
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}
	if *smoke {
		if err := runSmoke(client, base, *seed, *reqID); err != nil {
			fmt.Fprintln(os.Stderr, "planload: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("planload: smoke OK")
		return
	}

	dims, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planload:", err)
		os.Exit(1)
	}
	pool := matrixPool(*seed, *matrices, dims)
	total := *requests
	if total <= 0 {
		total = *clients
	}

	// The load fan-out runs on the repository's bounded pool: one worker
	// per client, each draining requests from the shared index space.
	defer par.SetWorkers(par.SetWorkers(*clients))

	var ok, errs, busy, retried atomic.Int64
	t0 := time.Now()
	par.ForEach(total, func(i int) {
		body := pool[i%len(pool)]
		tReq := time.Now()
		status, err := postPlanRetry(client, base, body, *retries, &retried)
		reqLatency.ObserveSince(tReq)
		switch {
		case err != nil:
			errs.Add(1)
		case status == http.StatusOK:
			ok.Add(1)
		case status == http.StatusTooManyRequests:
			busy.Add(1)
		default:
			errs.Add(1)
		}
	})
	wall := time.Since(t0)

	h, found := obs.RegistrySnapshot().Histograms["planload.request.ns"]
	if !found {
		fmt.Fprintln(os.Stderr, "planload: no latency observations recorded")
		os.Exit(1)
	}
	fmt.Printf("planload: %d requests in %v (%d clients, %d matrices)\n",
		total, wall.Round(time.Millisecond), *clients, len(pool))
	fmt.Printf("  ok %d, still-busy %d, errors %d, 429-retries %d\n",
		ok.Load(), busy.Load(), errs.Load(), retried.Load())
	fmt.Printf("  latency p50 %v  p90 %v  p99 %v  max %v\n",
		time.Duration(h.P50NS).Round(time.Microsecond),
		time.Duration(h.P90NS).Round(time.Microsecond),
		time.Duration(h.P99NS).Round(time.Microsecond),
		time.Duration(h.MaxNS).Round(time.Microsecond))

	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, h); err != nil {
			fmt.Fprintln(os.Stderr, "planload:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", *jsonPath)
	}
	if errs.Load() > 0 {
		os.Exit(1)
	}
}

// postPlanRetry uploads one matrix, sleeping out Retry-After and retrying
// up to retries times when the daemon refuses with 429. It returns the
// final status code.
func postPlanRetry(client *http.Client, base string, body []byte, retries int, retried *atomic.Int64) (int, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/plan", "text/plain", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		// Drain so the connection is reusable.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= retries {
			return resp.StatusCode, nil
		}
		retried.Add(1)
		wait := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			wait = time.Duration(s) * time.Second
		}
		time.Sleep(wait)
	}
}

// runSmoke is the servesmoke primitive: upload one matrix, fetch the plan
// back by content hash, deserialize and validate it, and check that the
// daemon's /metrics exposition mentions the plan store. With a non-empty
// reqID it also exercises the request-ID contract (DESIGN.md §18): the ID
// must come back in the response header and appear in /debug/requests.
func runSmoke(client *http.Client, base string, seed int64, reqID string) error {
	m := gen.Uniform(rand.New(rand.NewSource(seed)), 512, 4000)
	var upload bytes.Buffer
	if err := hottiles.WriteMatrixMarket(&upload, m); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/plan", bytes.NewReader(upload.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	planData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /plan: %d: %s", resp.StatusCode, planData)
	}
	hash := resp.Header.Get("X-Plan-Hash")
	if hash == "" {
		return fmt.Errorf("no X-Plan-Hash header")
	}
	if reqID != "" {
		if echo := resp.Header.Get(obs.RequestIDHeader); echo != reqID {
			return fmt.Errorf("request-id not echoed: sent %q, got %q", reqID, echo)
		}
		fmt.Printf("planload: request-id echoed id=%s\n", reqID)
	}
	plan, err := hottiles.ReadPlan(bytes.NewReader(planData))
	if err != nil {
		return fmt.Errorf("uploaded plan does not deserialize: %w", err)
	}
	if plan.Grid.N != m.N {
		return fmt.Errorf("plan is for a %d-row matrix, uploaded %d", plan.Grid.N, m.N)
	}

	get, err := client.Get(base + "/plan/" + hash)
	if err != nil {
		return err
	}
	fetched, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /plan/%s: %d", hash, get.StatusCode)
	}
	if !bytes.Equal(fetched, planData) {
		return fmt.Errorf("fetched plan differs from the uploaded one")
	}

	metrics, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	text, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if metrics.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %d", metrics.StatusCode)
	}
	for _, want := range []string{"planstore_builds", "httpd_plan_requests"} {
		if !strings.Contains(string(text), want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}

	if reqID != "" {
		fr, err := client.Get(base + "/debug/requests")
		if err != nil {
			return err
		}
		recs, _ := io.ReadAll(fr.Body)
		fr.Body.Close()
		if fr.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /debug/requests: %d", fr.StatusCode)
		}
		if !bytes.Contains(recs, []byte(`"id": "`+reqID+`"`)) {
			return fmt.Errorf("/debug/requests has no entry with id %q", reqID)
		}
		fmt.Printf("planload: request-id recorded id=%s\n", reqID)
	}
	return nil
}

// matrixPool generates count MatrixMarket bodies cycling through the
// requested sizes, each with ~8 nonzeros per row.
func matrixPool(seed int64, count int, dims []int) [][]byte {
	if count < 1 {
		count = 1
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		n := dims[i%len(dims)]
		m := gen.Uniform(rng, n, 8*n)
		var buf bytes.Buffer
		if err := hottiles.WriteMatrixMarket(&buf, m); err != nil {
			// Generation of a synthetic matrix cannot fail to serialize;
			// treat it as a programming error.
			panic(err)
		}
		pool = append(pool, buf.Bytes())
	}
	return pool
}

func parseSizes(s string) ([]int, error) {
	var dims []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 16 {
			return nil, fmt.Errorf("bad -sizes entry %q (want integers ≥ 16)", f)
		}
		dims = append(dims, n)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("-sizes is empty")
	}
	return dims, nil
}

// writeBenchJSON emits the latency summary in the BENCH_*.json schema
// (cmd/benchdiff), one pseudo-benchmark per quantile, so two load runs
// diff with `bin/benchdiff old.json new.json`.
func writeBenchJSON(path string, h obs.HistogramSnapshot) error {
	type metrics struct {
		NsPerOp     float64 `json:"ns_op"`
		BytesPerOp  float64 `json:"b_op"`
		AllocsPerOp float64 `json:"allocs_op"`
	}
	out := struct {
		Schema     string             `json:"schema"`
		Benchmarks map[string]metrics `json:"benchmarks"`
	}{
		Schema: "hottiles-bench/1",
		Benchmarks: map[string]metrics{
			"PlanloadP50": {NsPerOp: float64(h.P50NS)},
			"PlanloadP90": {NsPerOp: float64(h.P90NS)},
			"PlanloadP99": {NsPerOp: float64(h.P99NS)},
		},
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
