// Timeline tracing: a ring-buffered event recorder for the fine-grained
// behavior the counters deliberately discard — individual simulated
// workers starting and finishing units, bandwidth grants changing, pool
// goroutines draining fan-outs — and, flushed in by Tracer.Finish, the
// spans of every tracer attached to it. Events live in a fixed ring
// (oldest overwritten first), so a full `spmmsim all` run records the tail
// of its activity in bounded memory. Exported as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing) or as a terminal per-track
// utilization summary.
//
// Two clocks coexist: wall-clock events (pool activity, spans) carry
// nanoseconds since the timeline's epoch, while simulator events carry
// *simulated* nanoseconds. The Chrome export separates them into two trace
// "processes" so Perfetto never mixes the time bases on one row.
//
// Everything is nil-safe: a nil *Timeline accepts every method as a no-op,
// so instrumented code records unconditionally and the disabled path costs
// a nil check — no allocations, no locks (TestEngineStepAllocs and
// BenchmarkObsDisabled pin this for the engine and experiment paths).
package obs

import (
	"slices"
	"sync"
	"time"
)

// EventKind classifies one timeline event.
type EventKind uint8

const (
	// EvSlice is one span: a named wall-clock slice on its tracer's track.
	// Name indexes the timeline's name table, Arg is the span id within its
	// tracer, and Parent the parent span's id (-1 for a root).
	EvSlice EventKind = iota
	// EvWorkerRun is one simulated worker executing one unit: the slice
	// [TS, TS+Dur) on the simulated clock, Arg = unit index within the
	// worker's pool (the tile id for hot pools), Value = bytes the worker
	// moved to/from main memory during the unit.
	EvWorkerRun
	// EvWorkerIdle marks the simulated instant a worker's pool queue ran
	// dry (the worker idles for the rest of the run).
	EvWorkerIdle
	// EvGrant samples a simulated worker's bandwidth grant after a
	// reallocation changed it; Value = the new grant in bytes/s.
	EvGrant
	// EvTaskEnqueue marks a fan-out submitted to the worker pool; Arg = the
	// number of items enqueued.
	EvTaskEnqueue
	// EvTaskRun is one goroutine's participation in a fan-out: the
	// wall-clock slice [TS, TS+Dur) spent draining items, Arg = items
	// drained.
	EvTaskRun
	// EvQueueDepth samples the pool's extra-goroutine depth; Value = depth.
	EvQueueDepth
)

// simClock reports whether the kind's TS/Dur are simulated nanoseconds
// rather than wall-clock nanoseconds since the epoch.
func (k EventKind) simClock() bool {
	return k == EvWorkerRun || k == EvWorkerIdle || k == EvGrant
}

// Event is one timeline record. Events are plain values sized for the
// ring: names and track labels are interned, so recording never retains
// caller memory.
type Event struct {
	TS     int64 // ns: wall-clock since epoch, or simulated (see EventKind)
	Dur    int64 // slice width in ns; 0 for instants and samples
	Track  int32 // track id from Timeline.TrackID
	Name   int32 // interned name id (EvSlice only); -1 otherwise
	Kind   EventKind
	Parent int32   // EvSlice: parent span id, -1 for a root
	Arg    int64   // kind-specific: span id, unit index, item count
	Value  float64 // kind-specific: bytes, bytes/s, depth
}

// Timeline is the ring-buffered recorder. Build with NewTimeline; a nil
// Timeline is a valid, always-disabled recorder.
type Timeline struct {
	epoch time.Time

	mu     sync.Mutex
	buf    []Event
	total  uint64 // events ever appended; ring holds the last len(buf)
	names  []string
	nameID map[string]int32
	tracks []string
	trackI map[string]int32
}

// maxTracks and maxNames bound the string tables: a long sweep creates
// tracks per simulated run, and the tables must not grow without bound
// when the ring does not. Excess entries collapse onto a shared overflow
// slot.
const (
	maxTracks = 4096
	maxNames  = 1 << 16
)

// DefaultTimelineEvents is the ring capacity NewTimeline uses for
// non-positive requests: enough for the tail of a full study sweep while
// staying a few megabytes.
const DefaultTimelineEvents = 1 << 16

// NewTimeline returns a recorder whose ring holds the last capacity
// events (capacity <= 0 selects DefaultTimelineEvents).
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineEvents
	}
	return &Timeline{
		epoch:  time.Now(),
		buf:    make([]Event, 0, capacity),
		nameID: map[string]int32{},
		trackI: map[string]int32{},
	}
}

// Now returns nanoseconds since the timeline's epoch (0 for a nil
// timeline).
func (t *Timeline) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// TrackID maps a track label to its stable id, creating the track on first
// use. Once the table is full, further labels share one "(overflow)" track
// rather than growing it.
func (t *Timeline) TrackID(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return internLocked(t.trackI, &t.tracks, name, maxTracks)
}

// internLocked find-or-creates name in a string table (the timeline's or a
// tracer's) under its owner's lock. When the table has limit-1 entries,
// unseen names collapse onto a shared "(overflow)" entry, bounding the
// table at limit even though the ring keeps rolling.
func internLocked(index map[string]int32, table *[]string, name string, limit int) int32 {
	if id, ok := index[name]; ok {
		return id
	}
	if len(*table) >= limit-1 {
		name = "(overflow)"
		if id, ok := index[name]; ok {
			return id
		}
	}
	id := int32(len(*table))
	*table = append(*table, name)
	index[name] = id
	return id
}

// Append copies events into the ring, overwriting the oldest when full.
// The events themselves are plain values, so Append allocates nothing once
// the ring is warm.
func (t *Timeline) Append(evs ...Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	for _, ev := range evs {
		t.buf = ringPut(t.buf, &t.total, ev)
	}
	t.mu.Unlock()
}

// ringPut writes v into a ring whose next slot is *total%cap(ring) —
// appending until the ring reaches its capacity, then overwriting the
// oldest entry — and counts it in *total.
func ringPut[T any](ring []T, total *uint64, v T) []T {
	if len(ring) < cap(ring) {
		ring = append(ring, v)
	} else {
		ring[*total%uint64(cap(ring))] = v
	}
	*total++
	return ring
}

// ringOldestFirst copies a ring filled by ringPut, oldest entry first.
func ringOldestFirst[T any](ring []T, total uint64) []T {
	head := 0 // the oldest entry's slot once the ring has wrapped
	if total > uint64(cap(ring)) {
		head = int(total % uint64(cap(ring)))
	}
	return append(slices.Clone(ring[head:]), ring[:head]...)
}

// Events returns the recorded events oldest-first (a copy).
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringOldestFirst(t.buf, t.total)
}

// Dropped returns how many events the ring has overwritten.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// trackName resolves a track id for rendering.
func (t *Timeline) trackName(id int32) string {
	if t == nil || id < 0 || int(id) >= len(t.tracks) {
		return "?"
	}
	return t.tracks[id]
}

// eventName resolves an interned name id for rendering.
func (t *Timeline) eventName(id int32) string {
	if t == nil || id < 0 || int(id) >= len(t.names) {
		return "?"
	}
	return t.names[id]
}

// appendSpans copies a tracer's span events into the ring: the spans go on
// the given track, their names are re-interned into the timeline's table,
// and their timestamps are shifted from the tracer's start to the
// timeline's epoch.
func (t *Timeline) appendSpans(start time.Time, track int32, names []string, evs []Event) {
	shift := start.Sub(t.epoch).Nanoseconds()
	ids := make([]int32, len(names))
	for i := range ids {
		ids[i] = -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range evs {
		if ids[ev.Name] < 0 {
			ids[ev.Name] = internLocked(t.nameID, &t.names, names[ev.Name], maxNames)
		}
		ev.TS += shift
		ev.Track, ev.Name = track, ids[ev.Name]
		t.buf = ringPut(t.buf, &t.total, ev)
	}
}
