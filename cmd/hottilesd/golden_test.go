package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// update rewrites the golden output-shape fixtures under testdata/.
var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

// TestDebugRequestsGolden pins the shape of GET /debug/requests after one
// 200 and one 504 /plan request, both captured as post-mortems (slow
// threshold 1ns). Request IDs, start times, latencies, durations,
// timestamps and remote addresses vary between runs and are normalized.
func TestDebugRequestsGolden(t *testing.T) {
	obs.ConfigureFlight(time.Nanosecond)
	defer obs.ConfigureFlight(0)

	cfg := testConfig()
	cfg.reqTimeout = 250 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stall atomic.Bool
	s.buildHook = func() {
		if stall.Load() {
			time.Sleep(300 * time.Millisecond)
		}
	}
	var ids []string
	for i, want := range []int{http.StatusOK, http.StatusGatewayTimeout} {
		stall.Store(want != http.StatusOK)
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan",
			bytes.NewReader(matrixBytes(t, int64(31+i), 256, 2000))))
		if rec.Code != want {
			t.Fatalf("request %d: status %d, want %d", i, rec.Code, want)
		}
		ids = append(ids, rec.Header().Get(obs.RequestIDHeader))
	}
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, id := range ids {
		body = strings.ReplaceAll(body, id, "<id>")
	}
	var doc any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(normalizeVolatile(doc)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "debug_requests.golden", got.Bytes())
}

// normalizeVolatile replaces the fields that differ between runs —
// wall-clock times, latencies, durations, remote addresses — with fixed
// placeholders, recursively.
func normalizeVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "start", "remote":
				x[k] = "<" + k + ">"
			case "latency_ns", "dur_ns", "duration_ns", "ts_ns":
				x[k] = 0
			default:
				x[k] = normalizeVolatile(val)
			}
		}
	case []any:
		for i := range x {
			x[i] = normalizeVolatile(x[i])
		}
	}
	return v
}

// checkGolden compares got against testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s changed shape (rerun with -update and review the diff); got:\n%s", path, got)
	}
}
