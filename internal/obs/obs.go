// Package obs is the reproduction's observability layer: wall-clock spans,
// process-wide atomic counters and gauges, and per-run JSON manifests
// (DESIGN.md §10). It exists so perf work on the pipeline — tiling, model
// estimation, partitioning, simulated execution — can attribute time to
// stages and pin what a run produced, the measurement substrate the
// paper's evaluation methodology (§VI) assumes.
//
// A span is an event. Start reserves one EvSlice Event in the tracer's own
// buffer and End fills in its duration, so the buffer is the complete
// record of a run: the manifest's span tree, the flight recorder's phases
// and post-mortem spans, and the obs.span.end log lines of a tracer with a
// logger (SetLogger) are views over it. A tracer attached to a Timeline
// flushes the buffer into the ring once, at Finish, where the Perfetto
// export and the `-timeline -` summary see the spans beside the simulator
// and pool events.
//
// Everything is nil-safe by design: a nil *Tracer or *Span accepts every
// method as a no-op, so instrumented code calls
//
//	sp := tracer.Phase("exec").Start(key)
//	defer sp.End()
//
// unconditionally and the disabled path costs only a nil check (no
// allocations, no locks; BenchmarkObsDisabled pins this). Counters are
// always live — single atomic adds placed at call granularity, never inside
// per-nonzero loops.
package obs

import (
	"context"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"
)

// Tracer records one run's spans. The zero value is not useful; build with
// New. A nil Tracer is a valid, always-disabled tracer.
type Tracer struct {
	start time.Time
	root  *Span

	mu sync.Mutex
	// events holds one EvSlice per span in Start order, so a span's id is
	// its index and events[0] is the root. TS counts from the tracer's
	// start; Dur is -1 while the span is open; Name indexes names.
	events  []Event
	names   []string
	nameID  map[string]int32
	attrs   []spanAttr
	phases  map[string]*Span
	tl      *Timeline
	track   int32        // tl's track for the spans, named after the root
	log     *slog.Logger // receives one obs.span.end debug line per End
	flushed int          // events[:flushed] are already in tl
	config  map[string]string
	outputs []Output
	err     string // the fatal error the run ended with, for the manifest
}

// spanAttr is one attribute in the tracer's buffer, keyed by span id.
type spanAttr struct {
	span int32
	Attr
}

// New returns a Tracer whose root span carries the given name (typically
// the command or study name) and starts now.
func New(name string) *Tracer {
	t := &Tracer{start: time.Now(), nameID: map[string]int32{}, phases: map[string]*Span{}, config: map[string]string{}}
	t.root = t.open(-1, name, nil)
	return t
}

// SetTimeline attaches the ring Finish flushes the spans into (nil
// detaches), claiming the spans' track right away so a long run cannot
// fill the track table first. Attach before the first Finish.
func (t *Tracer) SetTimeline(tl *Timeline) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tl, t.track = tl, tl.TrackID(t.names[0])
	t.mu.Unlock()
}

// SetLogger makes every Span.End write one debug obs.span.end line to l
// (nil detaches): the span's name, duration and attributes. The stage logs
// of instrumented code are this view of its spans, not separate calls.
func (t *Tracer) SetLogger(l *slog.Logger) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.log = l
	t.mu.Unlock()
}

// Root returns the root span (nil for a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// open reserves the event of a new span under parent and records its
// start attributes. Caller holds t.mu (or owns t, as New does).
func (t *Tracer) open(parent int32, name string, attrs []Attr) *Span {
	id := int32(len(t.events))
	nid := internLocked(t.nameID, &t.names, name, math.MaxInt32)
	ts := time.Since(t.start).Nanoseconds()
	t.events = append(t.events, Event{TS: ts, Dur: -1, Name: nid, Kind: EvSlice, Parent: parent, Arg: int64(id)})
	for _, a := range attrs {
		t.attrs = append(t.attrs, spanAttr{id, a})
	}
	return &Span{tracer: t, id: id}
}

// Phase returns the direct child of the root with the given name, creating
// it on first use. Phases group the spans of one pipeline stage (generate,
// tile, estimate, exec); they stay open until Finish so concurrent work can
// keep attaching children.
func (t *Tracer) Phase(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.phases[name]
	if !ok {
		p = t.open(t.root.id, name, nil)
		t.phases[name] = p
	}
	return p
}

// Finish closes the root span and every still-open descendant (phases in
// particular), fixing their durations, and flushes the spans not yet
// flushed into the attached timeline. Idempotent.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.events {
		if ev := &t.events[i]; ev.Dur < 0 {
			ev.Dur = now - ev.TS
		}
	}
	if t.tl != nil && t.flushed < len(t.events) {
		t.tl.appendSpans(t.start, t.track, t.names, t.events[t.flushed:])
	}
	t.flushed = len(t.events)
}

// SetConfig records one run-configuration key (scale, seed, arch, …) for
// the manifest.
func (t *Tracer) SetConfig(key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.config[key] = val
	t.mu.Unlock()
}

// fail records the error a fatal exit ends the run with, for the manifest.
func (t *Tracer) fail(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.err = err.Error()
	t.mu.Unlock()
}

// Span is a handle on one timed region of the run: its event in the
// tracer's buffer. A nil Span accepts every method as a no-op, which is
// how disabled tracing stays free.
type Span struct {
	tracer *Tracer
	id     int32
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key, Val string
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{key, val} }

// Int builds an integer attribute.
func Int(key string, val int) Attr { return Attr{key, strconv.Itoa(val)} }

// F64 builds a float attribute.
func F64(key string, val float64) Attr {
	return Attr{key, strconv.FormatFloat(val, 'g', 6, 64)}
}

// Start opens a child span.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.tracer.open(s.id, name, attrs)
}

// End closes the span, fixing its duration, and writes its obs.span.end
// line when the tracer's logger is at debug level. Idempotent; children
// left open are closed by Tracer.Finish.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	now := time.Since(t.start).Nanoseconds()
	var line []slog.Attr
	t.mu.Lock()
	log := t.log
	if ev := &t.events[s.id]; ev.Dur < 0 {
		ev.Dur = now - ev.TS
		if log != nil && log.Enabled(context.TODO(), slog.LevelDebug) {
			line = append(line, slog.String("span", t.names[ev.Name]), slog.String("dur", time.Duration(ev.Dur).String()))
			for _, a := range t.attrs {
				if a.span == s.id {
					line = append(line, slog.String(a.Key, a.Val))
				}
			}
		}
	}
	t.mu.Unlock()
	if line != nil {
		log.LogAttrs(context.TODO(), slog.LevelDebug, "obs.span.end", line...)
	}
}

// SetAttr attaches (or appends) a key=value annotation. It may run after
// End: attributes live in the tracer's buffer, beside the span's event.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.tracer.attrs = append(s.tracer.attrs, spanAttr{s.id, Attr{key, val}})
	s.tracer.mu.Unlock()
}
