package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestNilTimelineIsNoOp(t *testing.T) {
	var tl *Timeline
	if tl.Now() != 0 {
		t.Fatal("nil timeline has a clock")
	}
	if tl.TrackID("x") != -1 {
		t.Fatal("nil timeline interned a name")
	}
	tl.Append(Event{Kind: EvSlice})
	// A tracer attached to a nil timeline records its spans but flushes
	// nowhere.
	tr := New("row")
	tr.SetTimeline(tl)
	tr.Root().Start("slice").End()
	tr.Finish()
	if tl.Events() != nil || tl.Dropped() != 0 {
		t.Fatal("nil timeline recorded events")
	}
	if n := len(tr.SpanTree().Children); n != 1 {
		t.Fatalf("tracer on a nil timeline kept %d spans, want 1", n)
	}
	if err := tl.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil timeline export did not error")
	}
}

func TestTimelineRingWrap(t *testing.T) {
	tl := NewTimeline(4)
	id := tl.TrackID("row")
	for i := int64(0); i < 10; i++ {
		tl.Append(Event{TS: i, Track: id, Name: -1, Kind: EvQueueDepth})
	}
	if total := tl.Dropped() + uint64(len(tl.Events())); total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	if tl.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tl.Dropped())
	}
	evs := tl.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Events come back oldest-first: the surviving tail is TS 6..9.
	for i, ev := range evs {
		if want := int64(6 + i); ev.TS != want {
			t.Fatalf("event %d has TS %d, want %d", i, ev.TS, want)
		}
	}
}

// TestTimelineInternReuse flushes many tracers with the same span names
// into one timeline: each distinct name is interned once, so the name table
// stays bounded by the distinct span names however many tracers flush.
func TestTimelineInternReuse(t *testing.T) {
	tl := NewTimeline(16)
	for i := 0; i < 1000; i++ {
		tr := New("httpd.healthz")
		tr.SetTimeline(tl)
		tr.Root().SetAttr("req", fmt.Sprintf("req-%d", i)) // attrs stay in the tracer
		tr.Root().Start("alpha").End()
		tr.Root().Start("beta").End()
		tr.Finish()
	}
	if len(tl.names) != 3 {
		t.Fatalf("name table holds %d names, want 3: %v", len(tl.names), tl.names)
	}
	evs := tl.Events()
	a, b := evs[len(evs)-2].Name, evs[len(evs)-1].Name
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if tl.eventName(a) != "alpha" || tl.eventName(b) != "beta" {
		t.Fatal("name table does not round-trip")
	}
	r := tl.TrackID("row")
	if again := tl.TrackID("row"); again != r {
		t.Fatal("re-intern of track changed id")
	}
	if tl.trackName(r) != "row" {
		t.Fatal("track table does not round-trip")
	}
	if tl.trackName(99) != "?" || tl.eventName(-1) != "?" {
		t.Fatal("out-of-range ids must render as ?")
	}
}

func TestTimelineTrackOverflow(t *testing.T) {
	tl := NewTimeline(16)
	for i := 0; i < maxTracks+10; i++ {
		tl.TrackID(fmt.Sprintf("track-%d", i))
	}
	if len(tl.tracks) > maxTracks {
		t.Fatalf("track table grew to %d, limit %d", len(tl.tracks), maxTracks)
	}
	over := tl.TrackID("yet-another")
	if tl.trackName(over) != "(overflow)" {
		t.Fatalf("overflow track renders as %q", tl.trackName(over))
	}
	// Pre-overflow tracks keep their identity.
	if tl.trackName(tl.TrackID("track-0")) != "track-0" {
		t.Fatal("early track lost after overflow")
	}
}

// TestTrackSpanRecordsSlice pins how a span reaches the timeline: one
// EvSlice per span, flushed once by Finish onto the track named after the
// tracer, carrying its span and parent ids.
func TestTrackSpanRecordsSlice(t *testing.T) {
	tl := NewTimeline(16)
	tr := New("studies")
	tr.SetTimeline(tl)
	sp := tr.Root().Start("fig10")
	sp.End()
	sp.End() // idempotent: must not record a second slice
	if len(tl.Events()) != 0 {
		t.Fatal("span reached the ring before Finish")
	}
	tr.Finish()
	tr.Finish() // idempotent: must not flush twice
	evs := tl.Events()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2 (root and fig10)", len(evs))
	}
	root, ev := evs[0], evs[1]
	if ev.Kind != EvSlice || ev.Dur < 0 || tl.trackName(ev.Track) != "studies" || tl.eventName(ev.Name) != "fig10" {
		t.Fatalf("bad slice event %+v", ev)
	}
	if root.Parent != -1 || ev.Parent != int32(root.Arg) || ev.Arg == root.Arg {
		t.Fatalf("span ids not linked: root %+v, child %+v", root, ev)
	}
	if ev.TS < root.TS || ev.TS+ev.Dur > root.TS+root.Dur {
		t.Fatalf("child [%d,+%d) outside root [%d,+%d)", ev.TS, ev.Dur, root.TS, root.Dur)
	}
	// Spans started after a Finish are flushed by the next one.
	tr.Root().Start("late").End()
	tr.Finish()
	if evs := tl.Events(); len(evs) != 3 || tl.eventName(evs[2].Name) != "late" {
		t.Fatalf("late span not flushed once: %d events", len(evs))
	}
}

func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Fatalf("obs.Event is %d bytes, want <= 48", n)
	}
}

// TestWriteChromeTrace checks the export against the Chrome trace-event
// schema: a traceEvents array whose entries carry a known phase, with both
// clock processes named and every referenced thread labeled.
func TestWriteChromeTrace(t *testing.T) {
	tl := NewTimeline(64)
	tr := New("spmmsim")
	tr.SetTimeline(tl)
	tr.Finish()
	simTrack := tl.TrackID("fig10/hot/w0")
	poolTrack := tl.TrackID("par/pool")
	tl.Append(
		Event{TS: 0, Dur: 500, Track: simTrack, Name: -1, Kind: EvWorkerRun, Arg: 3, Value: 4096},
		Event{TS: 500, Track: simTrack, Name: -1, Kind: EvWorkerIdle},
		Event{TS: 250, Track: simTrack, Name: -1, Kind: EvGrant, Value: 1e9},
		Event{TS: 120, Track: poolTrack, Name: -1, Kind: EvTaskEnqueue, Arg: 8},
		Event{TS: 130, Dur: 700, Track: poolTrack, Name: -1, Kind: EvTaskRun, Arg: 5},
		Event{TS: 140, Track: poolTrack, Name: -1, Kind: EvQueueDepth, Value: 2},
	)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	phases := map[string]int{}
	processes := map[string]bool{}
	threads := map[string]bool{}
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X", "i", "C":
			if ev.Pid != pidWall && ev.Pid != pidSim {
				t.Fatalf("event %q has pid %d", ev.Name, ev.Pid)
			}
		case "M":
			switch ev.Name {
			case "process_name":
				processes[ev.Args["name"].(string)] = true
			case "thread_name":
				threads[ev.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("unknown phase %q in export", ev.Ph)
		}
		if ev.Ph == "i" && ev.S != "t" {
			t.Fatalf("instant %q has scope %q, want t", ev.Name, ev.S)
		}
		phases[ev.Ph]++
	}
	if phases["X"] != 3 || phases["i"] != 2 || phases["C"] != 2 {
		t.Fatalf("phase counts %v, want 3 X / 2 i / 2 C", phases)
	}
	if !processes["wall clock"] || !processes["simulated time"] {
		t.Fatalf("missing process metadata: %v", processes)
	}
	for _, want := range []string{"spmmsim", "fig10/hot/w0", "par/pool"} {
		if !threads[want] {
			t.Fatalf("missing thread_name for %q (have %v)", want, threads)
		}
	}

	// Spot-check the kind-specific payloads survive the mapping.
	var sawRun, sawGrant bool
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" && ev.Name == "u3" {
			sawRun = true
			if ev.Args["bytes"].(float64) != 4096 {
				t.Fatalf("worker-run bytes = %v", ev.Args["bytes"])
			}
			if ev.Dur != 0.5 { // 500ns = 0.5µs
				t.Fatalf("worker-run dur = %v µs, want 0.5", ev.Dur)
			}
		}
		if ev.Ph == "C" && strings.HasPrefix(ev.Name, "bw ") {
			sawGrant = true
			if ev.Args["bytes_per_s"].(float64) != 1e9 {
				t.Fatalf("grant value = %v", ev.Args["bytes_per_s"])
			}
		}
	}
	if !sawRun || !sawGrant {
		t.Fatal("worker-run or grant event missing from export")
	}
}

func TestWriteTimelineSummary(t *testing.T) {
	tl := NewTimeline(64)
	simTrack := tl.TrackID("fig10/hot/w0")
	tl.Append(
		Event{TS: 0, Dur: 800, Track: simTrack, Name: -1, Kind: EvWorkerRun, Value: 1024},
		Event{TS: 900, Dur: 100, Track: simTrack, Name: -1, Kind: EvWorkerRun, Value: 1024},
	)
	wall := New("studies")
	wall.SetTimeline(tl)
	wall.Finish()

	var buf bytes.Buffer
	if err := tl.WriteTimelineSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 events recorded") {
		t.Fatalf("summary header wrong:\n%s", out)
	}
	// Simulated tracks sort before wall tracks.
	if sim, wallIdx := strings.Index(out, "fig10/hot/w0"), strings.Index(out, "studies"); sim < 0 || wallIdx < 0 || sim > wallIdx {
		t.Fatalf("sim track not listed first:\n%s", out)
	}
	// busy 900ns over span 1000ns = 90% utilization.
	if !strings.Contains(out, "90.0") {
		t.Fatalf("expected 90.0%% utilization:\n%s", out)
	}
}

func TestWriteTimelineFile(t *testing.T) {
	tl := NewTimeline(16)
	tr := New("row")
	tr.SetTimeline(tl)
	tr.Finish()
	path := filepath.Join(t.TempDir(), "sub", "tl.json")
	if err := WriteTimeline(tl, path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("written timeline is not JSON: %v", err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("written timeline lacks traceEvents")
	}
	if err := WriteTimeline(nil, path, nil); err == nil {
		t.Fatal("nil timeline write did not error")
	}
}

// TestSpanLanes overlaps sibling spans the way exec cells overlap on pool
// workers: the export must move them to extra rows of the tracer's track
// so every row's slices are nested or disjoint. Simulated slices on a
// track of the same id are a different row.
func TestSpanLanes(t *testing.T) {
	evs := []Event{
		{TS: 0, Dur: 100, Kind: EvSlice, Parent: -1},           // root
		{TS: 10, Dur: 40, Kind: EvSlice},                       // a
		{TS: 20, Dur: 40, Kind: EvSlice},                       // b: overlaps a
		{TS: 25, Dur: 5, Kind: EvSlice},                        // inside a and b
		{TS: 55, Dur: 20, Kind: EvSlice},                       // c: overlaps b, not a
		{TS: 0, Dur: 100, Track: 1, Kind: EvSlice, Parent: -1}, // other track
		{TS: 5, Kind: EvQueueDepth},
		{TS: 15, Dur: 10, Kind: EvWorkerRun}, // simulated row
		{TS: 20, Dur: 10, Kind: EvWorkerRun}, // overlaps the run above
	}
	got := sliceLanes(evs)
	want := []int{0, 0, 1, 0, 0, 0, 0, 0, 1}
	if !slices.Equal(got, want) {
		t.Fatalf("lanes %v, want %v", got, want)
	}

	tl := NewTimeline(16)
	tl.TrackID("spmmsim")
	for i := range evs[:5] {
		evs[i].Name = -1
	}
	tl.Append(evs[:5]...)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"spmmsim"`, `"name":"spmmsim (2)"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("export lacks thread %s:\n%s", want, buf.String())
		}
	}
}
