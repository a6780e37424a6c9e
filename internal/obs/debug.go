// Live debug endpoint: an opt-in HTTP server (the CLIs' -debug-addr flag)
// exposing the standard Go diagnostics (net/http/pprof, expvar) next to
// this package's own state — the full metric registry in Prometheus text
// exposition at /metrics and the running study fan-out at /progress. The
// mux is built separately from the server so tests drive it through
// httptest without binding a port.
package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// sanitizeMetricName maps a registry name onto the Prometheus metric-name
// charset: runs of characters outside [a-zA-Z0-9_:] become one underscore
// (so "sim.engine.steps" serves as "sim_engine_steps").
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promNamer assigns each registry name a unique Prometheus name.
// Sanitization is lossy ("sim.engine.steps" and "sim_engine_steps" both map
// to "sim_engine_steps"), and a collided exposition carries duplicate # TYPE
// lines and duplicate series, which Prometheus rejects as a malformed
// scrape. The namer claims every series a metric will emit (the base name
// plus kind-specific companions like a gauge's _max or a histogram's
// _bucket/_sum/_count) and resolves collisions by suffixing _2, _3, ... —
// deterministic because metrics are assigned in a fixed order (counters,
// gauges, histograms; each sorted by registry name).
type promNamer struct {
	taken map[string]bool
}

// assign returns the unique exposition name for a registry name, reserving
// name+suffix for every companion series the metric emits.
func (p *promNamer) assign(name string, companions ...string) string {
	if p.taken == nil {
		p.taken = map[string]bool{}
	}
	base := sanitizeMetricName(name)
	for n := 1; ; n++ {
		cand := base
		if n > 1 {
			cand = fmt.Sprintf("%s_%d", base, n)
		}
		free := !p.taken[cand]
		for _, c := range companions {
			free = free && !p.taken[cand+c]
		}
		if !free {
			continue
		}
		p.taken[cand] = true
		for _, c := range companions {
			p.taken[cand+c] = true
		}
		return cand
	}
}

// WriteMetricsText renders the view in the Prometheus text exposition
// format (version 0.0.4): counters, gauges (level plus a companion _max
// gauge for the high-water mark), and histograms with cumulative _bucket
// series, _sum, and _count. Output is sorted by metric name so scrapes
// diff cleanly, and distinct registry names that sanitize to the same
// Prometheus name are disambiguated through promNamer so one exposition
// never carries duplicate series.
func (v *RegistryView) WriteMetricsText(w io.Writer) error {
	var namer promNamer
	for _, name := range sortedKeys(v.Counters) {
		p := namer.assign(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, v.Counters[name]); err != nil {
			return err
		}
	}

	for _, name := range sortedKeys(v.Gauges) {
		g := v.Gauges[name]
		p := namer.assign(name, "_max")
		_, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n# TYPE %s_max gauge\n%s_max %d\n",
			p, p, g.Value, p, p, g.Max)
		if err != nil {
			return err
		}
	}

	for _, name := range sortedKeys(v.Histograms) {
		h := v.Histograms[name]
		p := namer.assign(name, "_bucket", "_sum", "_count")
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", p, b.UpperNS, b.Count); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			p, h.Count, p, h.SumNS, p, h.Count)
		if err != nil {
			return err
		}
	}
	return nil
}

// debugIndex is the landing page listing the endpoint's routes.
const debugIndex = `<html><head><title>hottiles debug</title></head><body>
<h1>hottiles debug endpoint</h1>
<ul>
<li><a href="/metrics">/metrics</a> — obs registry, Prometheus text exposition</li>
<li><a href="/progress">/progress</a> — running study fan-out, JSON</li>
<li><a href="/debug/requests">/debug/requests</a> — flight recorder: recent requests + post-mortems, JSON</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar (memstats, cmdline)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — CPU, heap, goroutine, block profiles</li>
</ul></body></html>
`

// DebugMux builds the debug endpoint's routing table. Tests wrap it in
// httptest.Server; ServeDebug binds it to a real listener.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := RegistrySnapshot().WriteMetricsText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// Resolved per request: ConfigureFlight may swap the recorder after the
	// mux was built.
	mux.HandleFunc("/debug/requests", serveJSON(func() any { return Flight().Snapshot() }))
	mux.HandleFunc("/progress", serveJSON(func() any { return ProgressSnapshot() }))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, debugIndex)
	})
	return mux
}

// serveJSON answers every request with view() as indented JSON.
func serveJSON(view func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(view()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// debugDrainTimeout bounds how long ServeDebug's stop function waits for
// in-flight scrapes before cutting their connections.
const debugDrainTimeout = 2 * time.Second

// GracefulStop shuts an HTTP server down without truncating in-flight
// responses: it stops the listeners, waits up to drain for running handlers
// to finish, and only then falls back to Close (which severs whatever is
// still open). It returns the Shutdown error when the drain deadline was
// exceeded — nil means every in-flight response completed. Both the debug
// endpoint and the hottilesd daemon stop through this one drain path.
func GracefulStop(srv *http.Server, drain time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return fmt.Errorf("obs: drain incomplete after %v: %w", drain, err)
	}
	return nil
}

// ServeDebug starts the debug endpoint on addr (e.g. ":6060"). It returns
// the bound address (useful when addr requested port 0) and a stop function
// that drains in-flight requests (a scrape racing shutdown still gets its
// full body) before closing the listener and any remaining connections. The
// accept loop is the one goroutine the repository runs outside the par
// pool: it must outlive any single fan-out and terminate with the
// listener, which the pool's bounded-task shape cannot express.
func ServeDebug(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug endpoint: %w", err)
	}
	srv := &http.Server{Handler: DebugMux()}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { GracefulStop(srv, debugDrainTimeout) }, nil
}
