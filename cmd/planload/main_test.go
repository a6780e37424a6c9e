package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	hottiles "repro"
)

// fakeDaemon is a minimal stand-in for hottilesd: it really runs the
// pipeline on uploads (so runSmoke's plan validation is meaningful) but
// keeps the transport trivial.
func fakeDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	plans := map[string][]byte{}
	var lastID atomic.Value
	lastID.Store("")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /plan", func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get("X-Request-ID"); id != "" {
			lastID.Store(id)
			w.Header().Set("X-Request-ID", id)
		}
		body, _ := io.ReadAll(r.Body)
		m, err := hottiles.ReadMatrixMarket(bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a := hottiles.SpadeSextans(4)
		a.TileH, a.TileW = 64, 64
		plan, err := hottiles.PartitionCtx(r.Context(), m, &a, hottiles.PartitionOptions{Seed: 1})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var buf bytes.Buffer
		if err := hottiles.WritePlan(&buf, plan); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		plans["fakehash"] = buf.Bytes()
		w.Header().Set("X-Plan-Hash", "fakehash")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("GET /plan/{hash}", func(w http.ResponseWriter, r *http.Request) {
		plan, ok := plans[r.PathValue("hash")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(plan)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "planstore_builds 1\nhttpd_plan_requests 1\n")
	})
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"recent":[{"id": %q}]}`, lastID.Load())
	})
	return httptest.NewServer(mux)
}

func TestRunSmokeAgainstFakeDaemon(t *testing.T) {
	ts := fakeDaemon(t)
	defer ts.Close()
	if err := runSmoke(ts.Client(), ts.URL, 1, ""); err != nil {
		t.Fatalf("smoke failed: %v", err)
	}
}

// TestRunSmokeRequestID pins the client half of the §18 correlation
// contract: the smoke run must fail loudly if the daemon drops the header
// echo or the flight-recorder entry, and pass when both round-trip.
func TestRunSmokeRequestID(t *testing.T) {
	ts := fakeDaemon(t)
	defer ts.Close()
	if err := runSmoke(ts.Client(), ts.URL, 1, "smoke-test-1"); err != nil {
		t.Fatalf("smoke with request-id failed: %v", err)
	}
}

// TestPostPlanRetryHonors429 pins the client half of the backpressure
// contract: a 429 with Retry-After is waited out and retried.
func TestPostPlanRetryHonors429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	var retried atomic.Int64
	t0 := time.Now()
	status, err := postPlanRetry(ts.Client(), ts.URL, []byte("m"), 2, &retried)
	if err != nil || status != http.StatusOK {
		t.Fatalf("status %d, err %v", status, err)
	}
	if retried.Load() != 1 {
		t.Fatalf("retried %d times, want 1", retried.Load())
	}
	if waited := time.Since(t0); waited < time.Second {
		t.Fatalf("did not honor Retry-After: only waited %v", waited)
	}
}

// TestPostPlanRetryGivesUp: past the retry budget the 429 is surfaced.
func TestPostPlanRetryGivesUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	var retried atomic.Int64
	status, err := postPlanRetry(ts.Client(), ts.URL, []byte("m"), 0, &retried)
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("status %d, err %v, want 429 surfaced", status, err)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("256, 512,1024")
	if err != nil || len(got) != 3 || got[0] != 256 || got[2] != 1024 {
		t.Fatalf("%v, %v", got, err)
	}
	for _, bad := range []string{"", "abc", "8", "256,,512"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}
