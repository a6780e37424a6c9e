package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"sim.engine.steps":   "sim_engine_steps",
		"par.cache.get.ns":   "par_cache_get_ns",
		"already_fine:colon": "already_fine:colon",
		"9starts.with.digit": "_9starts_with_digit",
		"spaces and-dashes":  "spaces_and_dashes",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// parseExposition splits a Prometheus text exposition into its # TYPE
// declarations and its series names, failing the test on any line that is
// neither.
func parseExposition(t *testing.T, body string) (types []string, series []string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, strings.Fields(rest)[0])
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		series = append(series, name)
	}
	return types, series
}

// TestMetricsEndpoint asserts the acceptance criterion: /metrics returns
// every registered metric in the Prometheus text exposition format.
func TestMetricsEndpoint(t *testing.T) {
	NewCounter("debugtest.hits").Add(7)
	NewGauge("debugtest.depth").Set(3)
	NewHistogram("debugtest.lat.ns").Observe(1500)

	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)

	// Every metric the process has registered — whatever other tests or
	// init functions created — must appear, sanitized, in the exposition.
	v := RegistrySnapshot()
	for _, name := range slices.Concat(sortedKeys(v.Counters), sortedKeys(v.Gauges), sortedKeys(v.Histograms)) {
		if !strings.Contains(body, sanitizeMetricName(name)) {
			t.Errorf("/metrics missing registered metric %q", name)
		}
	}

	// The exposition serves each registry name under its sanitized form
	// with no renaming, so a collision would show here as a repeated
	// # TYPE line or series, a scrape Prometheus rejects. The metricname
	// analyzer keeps the registry collision-free.
	types, series := parseExposition(t, body)
	seen := map[string]bool{}
	for _, name := range types {
		if seen[name] {
			t.Errorf("duplicate # TYPE line for %q", name)
		}
		seen[name] = true
	}
	seen = map[string]bool{}
	for _, name := range series {
		if seen[name] && !strings.HasSuffix(name, "_bucket") {
			t.Errorf("series %q emitted twice", name)
		}
		seen[name] = true
	}

	// Shape checks on the metrics this test owns.
	if !strings.Contains(body, "# TYPE debugtest_hits counter\ndebugtest_hits 7") {
		t.Error("counter exposition wrong")
	}
	if !strings.Contains(body, "debugtest_depth 3") || !strings.Contains(body, "debugtest_depth_max 3") {
		t.Error("gauge exposition missing level or high-water mark")
	}
	if !strings.Contains(body, "# TYPE debugtest_lat_ns histogram") {
		t.Error("histogram TYPE line missing")
	}
	if !strings.Contains(body, `debugtest_lat_ns_bucket{le="+Inf"}`) {
		t.Error("histogram +Inf bucket missing")
	}
	if !strings.Contains(body, "debugtest_lat_ns_sum") || !strings.Contains(body, "debugtest_lat_ns_count") {
		t.Error("histogram _sum/_count missing")
	}
}

func TestProgressEndpoint(t *testing.T) {
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	done := StartProgress("debugtest-study")
	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var view ProgressView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	found := false
	for _, r := range view.Running {
		if r.Name == "debugtest-study" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/progress does not list the running study: %+v", view)
	}
	done()
	done() // idempotent

	resp, err = http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range view.Running {
		if r.Name == "debugtest-study" {
			t.Fatal("finished study still listed as running")
		}
	}
	recent := false
	for _, r := range view.Recent {
		if r.Name == "debugtest-study" {
			recent = true
		}
	}
	if !recent || view.Completed < 1 {
		t.Fatalf("finished study not in recent list: %+v", view)
	}
}

func TestDebugIndexAndVars(t *testing.T) {
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "/metrics") {
		t.Fatalf("index page wrong (status %d)", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/no-such-route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route returned %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars lacks memstats")
	}
}

func TestServeDebug(t *testing.T) {
	addr, stop, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live /metrics returned %d", resp.StatusCode)
	}
	stop()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after stop")
	}

	// A second listener on the same port must surface the bind error.
	addr2, stop2, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if _, _, err := serveDebug(addr2); err == nil {
		t.Fatal("double bind did not error")
	}
}

// TestGracefulStopDrainsSlowHandler is the regression test for the
// non-draining shutdown bug: the pre-fix stop path called srv.Close(),
// which severs in-flight connections, so a scrape racing shutdown got a
// truncated body. GracefulStop must let a slow handler finish its full
// response before the server goes away.
func TestGracefulStopDrainsSlowHandler(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	tail := strings.Repeat("x", 1<<16)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		// Slow handler: the body lands only after shutdown has begun.
		time.Sleep(200 * time.Millisecond)
		io.WriteString(w, "head\n"+tail)
	})}
	go srv.Serve(ln)

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		got <- result{body: string(data), err: err}
	}()

	<-started
	if err := GracefulStop(srv, 5*time.Second); err != nil {
		t.Fatalf("GracefulStop: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight scrape cut by shutdown: %v", r.err)
	}
	if r.body != "head\n"+tail {
		t.Fatalf("in-flight scrape truncated: got %d bytes, want %d", len(r.body), 5+len(tail))
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
		t.Fatal("server still accepting after GracefulStop")
	}
}

// TestGracefulStopDeadline pins the fallback: a handler that outlives the
// drain window must not wedge shutdown — GracefulStop reports the deadline
// and closes the connection instead.
func TestGracefulStopDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	})}
	go srv.Serve(ln)
	go http.Get("http://" + ln.Addr().String() + "/")

	<-started
	t0 := time.Now()
	err = GracefulStop(srv, 50*time.Millisecond)
	close(release)
	if err == nil {
		t.Fatal("GracefulStop returned nil despite a wedged handler")
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("GracefulStop took %v, the Close fallback did not fire", d)
	}
}

// TestDebugServerConcurrentScrapes drives the live endpoint from several
// goroutines while metrics and progress mutate underneath — the shape a
// Prometheus scraper plus a watching user produce mid-run. Run under
// `make race`, this pins the endpoint's thread safety.
func TestDebugServerConcurrentScrapes(t *testing.T) {
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	hits := NewCounter("debugtest.scrape.hits")
	lat := NewHistogram("debugtest.scrape.lat.ns")
	stopWriters := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWriters:
				return
			default:
			}
			hits.Inc()
			lat.Observe(int64(i%1000 + 1))
			done := StartProgress("scrape-work")
			done()
		}
	}()

	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				for _, route := range []string{"/metrics", "/progress"} {
					resp, err := http.Get(srv.URL + route)
					if err != nil {
						t.Errorf("%s: %v", route, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s returned %d", route, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	scrapers.Wait()
	close(stopWriters)
	writers.Wait()
}
