// Flight recorder: a fixed-capacity ring of per-request records for the
// daemon (DESIGN.md §18). Every request leaves a compact record (route, ID,
// status, latency, bytes, phase timings read off its tracer's top-level
// spans); slow or 5xx requests are additionally captured whole — the
// tracer's full span tree plus the tail of its timeline — in a separate
// small post-mortem ring, served as JSON at /debug/requests and dumpable on
// SIGQUIT. The rings are bounded and overwrite oldest-first, so the
// recorder's memory is constant no matter how long the daemon runs.
package obs

import (
	"encoding/json"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseNS is one top-level phase of a request's span tree, flattened for
// the compact per-request record.
type PhaseNS struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// RequestRecord is the compact flight-recorder entry every request leaves.
type RequestRecord struct {
	ID        string    `json:"id"`
	Method    string    `json:"method,omitempty"`
	Route     string    `json:"route"`
	Path      string    `json:"path,omitempty"`
	Status    int       `json:"status"`
	Start     time.Time `json:"start"`
	LatencyNS int64     `json:"latency_ns"`
	Bytes     int64     `json:"bytes"`
	Remote    string    `json:"remote,omitempty"`
	Err       string    `json:"err,omitempty"`
	Phases    []PhaseNS `json:"phases,omitempty"`
}

// PostmortemRecord is the full capture of one bad request: the compact
// record plus why it was captured, its span tree, and the tail of the
// daemon timeline at completion.
type PostmortemRecord struct {
	RequestRecord
	Reason   string      `json:"reason"` // "error", "slow", or "error,slow"
	Spans    *SpanRecord `json:"spans,omitempty"`
	Timeline []EventView `json:"timeline,omitempty"`
}

// Flight-recorder sizes: the compact ring, the post-mortem ring, and the
// timeline tail each post-mortem keeps.
const (
	flightCapacity       = 256
	postCapacity         = 16
	postTimelineEvents   = 64
	defaultSlowThreshold = time.Second
)

// FlightRecorder holds the two request rings. Build with NewFlightRecorder;
// a nil recorder accepts every method as a no-op.
type FlightRecorder struct {
	slow    time.Duration
	mu      sync.Mutex
	recent  []RequestRecord // ring; recent[total%cap] is the next slot
	total   uint64
	post    []PostmortemRecord
	postTot uint64
}

// NewFlightRecorder builds a recorder that captures requests at or above
// the slow threshold as post-mortems (0 selects 1s; negative disables slow
// capture).
func NewFlightRecorder(slow time.Duration) *FlightRecorder {
	if slow == 0 {
		slow = defaultSlowThreshold
	}
	return &FlightRecorder{
		slow:   slow,
		recent: make([]RequestRecord, 0, flightCapacity),
		post:   make([]PostmortemRecord, 0, postCapacity),
	}
}

// flightCaptured counts post-mortem captures (slow or 5xx requests).
var flightCaptured = NewCounter("obs.flight.captured")

// Record files one completed request, finishing its tracer (which may be
// nil). When rec.Phases is empty it is read off the tracer's top-level
// spans. The span tree and the tracer's timeline tail are only captured
// when the request qualifies for post-mortem capture (status ≥ 500 or
// latency ≥ the slow threshold).
func (f *FlightRecorder) Record(rec RequestRecord, tr *Tracer) {
	if f == nil {
		return
	}
	tr.Finish()
	if len(rec.Phases) == 0 {
		rec.Phases = tr.topLevel()
	}
	var why []string
	if rec.Status >= 500 {
		why = append(why, "error")
	}
	if f.slow >= 0 && rec.LatencyNS >= f.slow.Nanoseconds() {
		why = append(why, "slow")
	}
	reason := strings.Join(why, ",")
	var pm PostmortemRecord
	if reason != "" {
		flightCaptured.Inc()
		pm = PostmortemRecord{RequestRecord: rec, Reason: reason}
		if tr != nil {
			pm.Spans = tr.SpanTree()
			pm.Timeline = tr.tl.TailView(postTimelineEvents)
		}
	}
	f.mu.Lock()
	f.recent = ringPut(f.recent, &f.total, rec)
	if reason != "" {
		f.post = ringPut(f.post, &f.postTot, pm)
	}
	f.mu.Unlock()
}

// FlightView is the /debug/requests response shape.
type FlightView struct {
	// Total counts requests ever recorded; Captured counts post-mortems.
	Total    uint64 `json:"total"`
	Captured uint64 `json:"captured"`
	// SlowThresholdNS is the capture threshold in effect.
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
	// Recent holds the compact ring newest-first; Postmortem the capture
	// ring newest-first.
	Recent     []RequestRecord    `json:"recent"`
	Postmortem []PostmortemRecord `json:"postmortem,omitempty"`
}

// Snapshot copies both rings, newest-first.
func (f *FlightRecorder) Snapshot() FlightView {
	if f == nil {
		return FlightView{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	v := FlightView{
		Total:           f.total,
		Captured:        f.postTot,
		SlowThresholdNS: f.slow.Nanoseconds(),
		Recent:          ringOldestFirst(f.recent, f.total),
		Postmortem:      ringOldestFirst(f.post, f.postTot),
	}
	slices.Reverse(v.Recent)
	slices.Reverse(v.Postmortem)
	return v
}

// WritePostmortem dumps the post-mortem ring as one JSON document — the
// SIGQUIT handler's output.
func (f *FlightRecorder) WritePostmortem(w io.Writer) error {
	v := f.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Captured   uint64             `json:"captured"`
		Postmortem []PostmortemRecord `json:"postmortem"`
	}{v.Captured, v.Postmortem})
}

// flight is the process-wide recorder /debug/requests serves. An atomic
// pointer (not a plain var) so tests and daemons reconfigure it without
// racing in-flight Record calls.
var flight atomic.Pointer[FlightRecorder]

// Flight returns the process-wide flight recorder, creating a
// default-configured one on first use.
func Flight() *FlightRecorder {
	if f := flight.Load(); f != nil {
		return f
	}
	f := NewFlightRecorder(0)
	if flight.CompareAndSwap(nil, f) {
		return f
	}
	return flight.Load()
}

// ConfigureFlight replaces the process-wide recorder with a fresh one using
// the given slow threshold (see NewFlightRecorder) and returns it. Records
// already filed stay with the old recorder; in-flight Record calls land in
// whichever recorder they resolved.
func ConfigureFlight(slow time.Duration) *FlightRecorder {
	f := NewFlightRecorder(slow)
	flight.Store(f)
	return f
}

// EventView is one timeline event with its interned names resolved, the
// shape post-mortems and JSON consumers see.
type EventView struct {
	Track string  `json:"track"`
	Name  string  `json:"name,omitempty"`
	Kind  string  `json:"kind"`
	TSNS  int64   `json:"ts_ns"`
	DurNS int64   `json:"dur_ns,omitempty"`
	Arg   int64   `json:"arg,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// kindNames spells EventKind for EventView.
var kindNames = [...]string{
	EvSlice:       "slice",
	EvWorkerRun:   "worker.run",
	EvWorkerIdle:  "worker.idle",
	EvGrant:       "grant",
	EvTaskEnqueue: "task.enqueue",
	EvTaskRun:     "task.run",
	EvQueueDepth:  "queue.depth",
}

// TailView returns the newest n events with names resolved, oldest-first.
func (t *Timeline) TailView(n int) []EventView {
	if t == nil || n <= 0 {
		return nil
	}
	evs := t.Events()
	evs = evs[max(len(evs)-n, 0):]
	out := make([]EventView, 0, len(evs))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range evs {
		v := EventView{Track: t.trackName(ev.Track), Kind: "?", TSNS: ev.TS, DurNS: ev.Dur, Arg: ev.Arg, Value: ev.Value}
		if int(ev.Kind) < len(kindNames) {
			v.Kind = kindNames[ev.Kind]
		}
		if ev.Kind == EvSlice {
			v.Name = t.eventName(ev.Name)
		}
		out = append(out, v)
	}
	return out
}

// topLevel returns the root's direct children as phase timings, in Start
// order (nil for a nil tracer).
func (t *Tracer) topLevel() []PhaseNS {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []PhaseNS
	for _, ev := range t.events {
		if ev.Parent == t.root.id {
			out = append(out, PhaseNS{Name: t.names[ev.Name], DurNS: ev.Dur})
		}
	}
	return out
}
