package obs

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"time"
)

// Manifest is the pinned record of one run: configuration, the span tree,
// every registered counter/gauge, and a content hash of each produced
// artifact. Written as JSON to runs/<name>.json by the CLIs (DESIGN.md §10).
type Manifest struct {
	Name    string            `json:"name"`
	Created string            `json:"created"` // RFC3339
	Config  map[string]string `json:"config,omitempty"`
	Spans   *SpanRecord       `json:"spans"`
	// Counters and Histograms are rendered from one RegistrySnapshot, so a
	// manifest can never pair a counter view and a histogram view taken at
	// different moments of the run.
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Outputs    []Output                     `json:"outputs,omitempty"`
	// Error is the error a fatal exit ended the run with (CLI.Fail); a
	// manifest without it is a run that finished.
	Error string `json:"error,omitempty"`
}

// SpanRecord is the serialized form of one span.
type SpanRecord struct {
	Name       string            `json:"name"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanRecord     `json:"children,omitempty"`
}

// Output pins one produced artifact (a rendered table or figure, a written
// file) by content hash, so a later run can prove it regenerated the same
// bytes.
type Output struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// HashOutput returns the Output record for one artifact's bytes.
func HashOutput(name string, data []byte) Output {
	sum := sha256.Sum256(data)
	return Output{Name: name, SHA256: hex.EncodeToString(sum[:]), Bytes: len(data)}
}

// AddOutput records a produced artifact's content hash for the manifest.
func (t *Tracer) AddOutput(name string, data []byte) {
	if t == nil {
		return
	}
	out := HashOutput(name, data)
	t.mu.Lock()
	t.outputs = append(t.outputs, out)
	t.mu.Unlock()
}

// spanTree builds the span tree from the tracer's buffer: one record per
// event, children in Start order, attributes applied in the order they
// were set. Caller holds t.mu.
func (t *Tracer) spanTree() *SpanRecord {
	recs := make([]SpanRecord, len(t.events))
	for i, ev := range t.events {
		recs[i] = SpanRecord{Name: t.names[ev.Name], DurationNS: ev.Dur}
		if ev.Parent >= 0 {
			p := &recs[ev.Parent]
			p.Children = append(p.Children, &recs[i])
		}
	}
	for _, a := range t.attrs {
		r := &recs[a.span]
		if r.Attrs == nil {
			r.Attrs = map[string]string{}
		}
		r.Attrs[a.Key] = a.Val
	}
	return &recs[0]
}

// SpanTree finalizes the tracer (Finish) and returns the serialized span
// tree alone — the shape the flight recorder retains per captured request,
// without the whole-process registry snapshot a Manifest carries.
func (t *Tracer) SpanTree() *SpanRecord {
	if t == nil {
		return nil
	}
	t.Finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanTree()
}

// Manifest finalizes the tracer (Finish) and assembles the run manifest,
// snapshotting every registered counter and gauge.
func (t *Tracer) Manifest() *Manifest {
	if t == nil {
		return nil
	}
	t.Finish()
	t.mu.Lock()
	spans, cfg, outputs, runErr := t.spanTree(), maps.Clone(t.config), slices.Clone(t.outputs), t.err
	t.mu.Unlock()

	view := RegistrySnapshot()
	hists := make(map[string]HistogramSnapshot, len(view.Histograms))
	for name, h := range view.Histograms {
		if h.Count > 0 {
			hists[name] = h
		}
	}
	return &Manifest{
		Name:       spans.Name,
		Created:    t.start.Format(time.RFC3339),
		Config:     cfg,
		Spans:      spans,
		Counters:   view.flatten(),
		Histograms: hists,
		Outputs:    outputs,
		Error:      runErr,
	}
}

// WriteManifest finalizes the tracer and writes the manifest as indented
// JSON.
func (t *Tracer) WriteManifest(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Manifest())
}

// ReadManifest parses a manifest previously written by WriteManifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: bad manifest: %w", err)
	}
	if m.Spans == nil {
		return nil, fmt.Errorf("obs: manifest has no span tree")
	}
	return &m, nil
}

// Phases returns the names of the root's direct children (the pipeline
// phases), in creation order.
func (m *Manifest) Phases() []string {
	var out []string
	for _, c := range m.Spans.Children {
		out = append(out, c.Name)
	}
	return out
}

// byTime is one row of the cumulative-time summary.
type byTime struct {
	name  string
	count int
	total time.Duration
}

// WriteSummary finalizes the tracer and prints a human-readable digest: the
// top span names by cumulative (inclusive) time, then the nonzero counters.
// This is what `-trace -` shows.
func (t *Tracer) WriteSummary(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	m := t.Manifest()

	agg := map[string]*byTime{}
	var walk func(r *SpanRecord, depth int)
	walk = func(r *SpanRecord, depth int) {
		if depth > 0 { // the root's duration is the whole run; skip it
			e, ok := agg[r.Name]
			if !ok {
				e = &byTime{name: r.Name}
				agg[r.Name] = e
			}
			e.count++
			e.total += time.Duration(r.DurationNS)
		}
		for _, c := range r.Children {
			walk(c, depth+1)
		}
	}
	walk(m.Spans, 0)

	rows := make([]*byTime, 0, len(agg))
	for _, e := range agg {
		rows = append(rows, e)
	}
	slices.SortFunc(rows, func(a, b *byTime) int {
		if a.total != b.total {
			return cmp.Compare(b.total, a.total)
		}
		return strings.Compare(a.name, b.name)
	})

	fmt.Fprintf(w, "trace %s — total %v\n", m.Name, time.Duration(m.Spans.DurationNS).Round(time.Microsecond))
	fmt.Fprintf(w, "%-32s%8s%14s\n", "span", "count", "cumulative")
	const top = 20
	for i, r := range rows {
		if i >= top {
			fmt.Fprintf(w, "… %d more span names\n", len(rows)-top)
			break
		}
		fmt.Fprintf(w, "%-32s%8d%14v\n", r.name, r.count, r.total.Round(time.Microsecond))
	}

	names := make([]string, 0, len(m.Counters))
	for name, v := range m.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	if len(names) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range names {
			fmt.Fprintf(w, "  %-30s%12d\n", name, m.Counters[name])
		}
	}
	if len(m.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		fmt.Fprintf(w, "  %-28s%10s%14s%14s%14s%14s\n", "name", "count", "p50", "p90", "p99", "max")
		for _, name := range sortedKeys(m.Histograms) {
			h := m.Histograms[name]
			fmt.Fprintf(w, "  %-28s%10d%14v%14v%14v%14v\n", name, h.Count,
				time.Duration(h.P50NS).Round(time.Nanosecond),
				time.Duration(h.P90NS).Round(time.Nanosecond),
				time.Duration(h.P99NS).Round(time.Nanosecond),
				time.Duration(h.MaxNS).Round(time.Nanosecond))
		}
	}
	for _, o := range m.Outputs {
		fmt.Fprintf(w, "output %s: %d bytes, sha256 %s\n", o.Name, o.Bytes, o.SHA256[:12])
	}
	return nil
}
