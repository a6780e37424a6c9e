package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// Trace-process ids of the Chrome export: wall-clock events and simulated
// events render as separate processes so Perfetto never mixes the two time
// bases on one row.
const (
	pidWall = 1
	pidSim  = 2
)

// chromeEvent is one entry of the Chrome trace-event JSON schema (the
// subset Perfetto and chrome://tracing consume: complete slices "X",
// instants "i", counters "C", and metadata "M").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chrome converts one recorded event. ok is false for kinds the export
// skips (none today, but the schema stays closed over the known kinds).
func (t *Timeline) chrome(ev Event) (chromeEvent, bool) {
	c := chromeEvent{
		TS:  float64(ev.TS) / 1e3,
		Pid: pidWall,
		Tid: int(ev.Track),
	}
	if ev.Kind.simClock() {
		c.Pid = pidSim
	}
	switch ev.Kind {
	case EvSlice:
		c.Ph, c.Name, c.Dur = "X", t.eventName(ev.Name), float64(ev.Dur)/1e3
	case EvWorkerRun:
		c.Ph, c.Name, c.Dur = "X", "u"+strconv.FormatInt(ev.Arg, 10), float64(ev.Dur)/1e3
		c.Args = map[string]any{"bytes": ev.Value}
	case EvWorkerIdle:
		c.Ph, c.Name, c.S = "i", "idle", "t"
	case EvGrant:
		c.Ph, c.Name = "C", "bw "+t.trackName(ev.Track)
		c.Args = map[string]any{"bytes_per_s": ev.Value}
	case EvTaskEnqueue:
		c.Ph, c.Name, c.S = "i", "enqueue", "t"
		c.Args = map[string]any{"items": ev.Arg}
	case EvTaskRun:
		c.Ph, c.Name, c.Dur = "X", "drain", float64(ev.Dur)/1e3
		c.Args = map[string]any{"items": ev.Arg}
	case EvQueueDepth:
		c.Ph, c.Name = "C", "pool depth"
		c.Args = map[string]any{"depth": ev.Value}
	default:
		return chromeEvent{}, false
	}
	return c, true
}

// sliceLanes assigns every complete slice — span, worker unit, pool drain
// — a lane of its row, so that the slices sharing a lane are nested or
// disjoint: concurrent work (exec cells on pool workers, overlapping
// requests, simulated runs collapsed onto the overflow track) goes to
// further lanes, which the export renders as separate rows. Lane 0 is the
// row itself; every other event gets lane 0.
func sliceLanes(events []Event) []int {
	idx := make([]int, 0, len(events))
	for i, ev := range events {
		if ev.Kind == EvSlice || ev.Kind == EvWorkerRun || ev.Kind == EvTaskRun {
			idx = append(idx, i)
		}
	}
	// Per row, in start order, outer slices before the slices they contain.
	row := func(ev *Event) int64 {
		if ev.Kind.simClock() {
			return int64(ev.Track) + maxTracks
		}
		return int64(ev.Track)
	}
	slices.SortFunc(idx, func(a, b int) int {
		ea, eb := &events[a], &events[b]
		return cmp.Or(cmp.Compare(row(ea), row(eb)), cmp.Compare(ea.TS, eb.TS),
			cmp.Compare(eb.TS+eb.Dur, ea.TS+ea.Dur))
	})
	lanes := make([]int, len(events))
	var open [][]int64 // per lane of the current row: ends of the enclosing slices
	for k, i := range idx {
		ev := &events[i]
		if k == 0 || row(&events[idx[k-1]]) != row(ev) {
			open = open[:0]
		}
		end, lane := ev.TS+ev.Dur, 0
		for ; lane < len(open); lane++ {
			st := open[lane]
			for len(st) > 0 && st[len(st)-1] <= ev.TS {
				st = st[:len(st)-1]
			}
			open[lane] = st
			if len(st) == 0 || end <= st[len(st)-1] {
				break
			}
		}
		if lane == len(open) {
			open = append(open, nil)
		}
		open[lane] = append(open[lane], end)
		lanes[i] = lane
	}
	return lanes
}

// WriteChromeTrace renders the ring as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each slice lane
// beyond the first becomes its own thread, labeled "<track> (n)".
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChromeTrace on nil timeline")
	}
	events := t.Events()
	lanes := sliceLanes(events)
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidWall, Args: map[string]any{"name": "wall clock"}},
		{Name: "process_name", Ph: "M", Pid: pidSim, Args: map[string]any{"name": "simulated time"}},
	}}

	// Name every referenced thread, then emit the events.
	type row struct{ pid, tid int }
	threads := map[row]string{}
	body := make([]chromeEvent, 0, len(events))
	t.mu.Lock()
	for i, ev := range events {
		c, ok := t.chrome(ev)
		if !ok {
			continue
		}
		name := t.trackName(ev.Track)
		if lanes[i] > 0 {
			c.Tid += lanes[i] * maxTracks
			name += " (" + strconv.Itoa(lanes[i]+1) + ")"
		}
		threads[row{c.Pid, c.Tid}] = name
		body = append(body, c)
	}
	t.mu.Unlock()
	rows := make([]row, 0, len(threads))
	for r := range threads {
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.tid, b.tid))
	})
	for _, r := range rows {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: r.pid, Tid: r.tid,
			Args: map[string]any{"name": threads[r]},
		})
	}
	out.TraceEvents = append(out.TraceEvents, body...)
	return json.NewEncoder(w).Encode(&out)
}

// trackAgg accumulates one track's summary row.
type trackAgg struct {
	track    int32
	sim      bool
	events   int
	busy     int64 // Σ slice durations
	bytes    float64
	minStart int64
	maxEnd   int64
}

// WriteTimelineSummary prints the terminal digest `-timeline -` shows:
// per-track busy time, span, utilization, and bytes, simulated workers
// first. Utilization is busy/span where span is the track's own active
// window (simulated tracks start at 0 by construction).
func (t *Timeline) WriteTimelineSummary(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteTimelineSummary on nil timeline")
	}
	events := t.Events()
	aggs := map[int32]*trackAgg{}
	for _, ev := range events {
		a, ok := aggs[ev.Track]
		if !ok {
			a = &trackAgg{track: ev.Track, sim: ev.Kind.simClock(), minStart: ev.TS}
			aggs[ev.Track] = a
		}
		a.events++
		if ev.TS < a.minStart {
			a.minStart = ev.TS
		}
		if end := ev.TS + ev.Dur; end > a.maxEnd {
			a.maxEnd = end
		}
		switch {
		case ev.Kind == EvSlice && ev.Parent < 0, ev.Kind == EvTaskRun:
			// A span's children run inside it: only roots count as busy.
			a.busy += ev.Dur
		case ev.Kind == EvWorkerRun:
			a.busy += ev.Dur
			a.bytes += ev.Value
		}
	}
	rows := make([]*trackAgg, 0, len(aggs))
	for _, a := range aggs {
		rows = append(rows, a)
	}
	slices.SortFunc(rows, func(a, b *trackAgg) int {
		if a.sim != b.sim {
			if a.sim {
				return -1
			}
			return 1
		}
		if a.busy != b.busy {
			return cmp.Compare(b.busy, a.busy)
		}
		return cmp.Compare(a.track, b.track)
	})

	fmt.Fprintf(w, "timeline: %d events recorded (%d overwritten), %d tracks\n",
		len(events), t.Dropped(), len(rows))
	fmt.Fprintf(w, "%-40s%6s%8s%14s%14s%8s%14s\n",
		"track", "clock", "events", "busy", "span", "util%", "bytes")
	const top = 40
	for i, a := range rows {
		if i >= top {
			fmt.Fprintf(w, "… %d more tracks\n", len(rows)-top)
			break
		}
		span := a.maxEnd - a.minStart
		if a.sim {
			span = a.maxEnd // simulated runs start at t=0
		}
		util := 0.0
		if span > 0 {
			util = float64(a.busy) / float64(span) * 100
		}
		clock := "wall"
		if a.sim {
			clock = "sim"
		}
		bytes := ""
		if a.bytes > 0 {
			bytes = fmt.Sprintf("%14.3g", a.bytes)
		}
		fmt.Fprintf(w, "%-40s%6s%8d%14v%14v%8.1f%s\n",
			t.trackName(a.track), clock, a.events,
			time.Duration(a.busy).Round(time.Microsecond),
			time.Duration(span).Round(time.Microsecond),
			util, bytes)
	}
	return nil
}
