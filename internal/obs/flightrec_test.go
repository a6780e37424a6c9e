package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(-1)
	const n = flightCapacity + 2
	for i := 0; i < n; i++ {
		f.Record(RequestRecord{ID: fmt.Sprintf("r%d", i), Route: "plan", Status: 200}, nil)
	}
	v := f.Snapshot()
	if v.Total != n {
		t.Errorf("Total = %d, want %d", v.Total, n)
	}
	if len(v.Recent) != flightCapacity {
		t.Fatalf("Recent has %d entries, want %d", len(v.Recent), flightCapacity)
	}
	if last := v.Recent[flightCapacity-1].ID; last != "r2" {
		t.Errorf("oldest kept = %q, want r2", last)
	}
	for i, want := range []string{fmt.Sprintf("r%d", n-1), fmt.Sprintf("r%d", n-2)} {
		if v.Recent[i].ID != want {
			t.Errorf("Recent[%d] = %q, want %q (newest first)", i, v.Recent[i].ID, want)
		}
	}
	if len(v.Postmortem) != 0 || v.Captured != 0 {
		t.Errorf("slow capture disabled but postmortem ring has %d/%d", len(v.Postmortem), v.Captured)
	}
}

// requestTracer makes a request's tracer with two top-level stages,
// attached to tl (which may be nil).
func requestTracer(tl *Timeline) *Tracer {
	tr := New("httpd.plan")
	tr.SetTimeline(tl)
	sp := tr.Root().Start("hotcore.scan")
	sp.End()
	sp = tr.Root().Start("hotcore.partition")
	sp.End()
	return tr
}

func TestFlightPostmortemCapture(t *testing.T) {
	f := NewFlightRecorder(10 * time.Millisecond)
	tl := NewTimeline(16)

	f.Record(RequestRecord{ID: "r-ok", Status: 200, LatencyNS: 1000}, requestTracer(tl))
	f.Record(RequestRecord{ID: "r-5xx", Status: 503, LatencyNS: 1000}, requestTracer(tl))
	f.Record(RequestRecord{ID: "r-slow", Status: 200,
		LatencyNS: (20 * time.Millisecond).Nanoseconds()}, requestTracer(tl))
	f.Record(RequestRecord{ID: "r-both", Status: 500,
		LatencyNS: (20 * time.Millisecond).Nanoseconds()}, requestTracer(tl))

	v := f.Snapshot()
	if v.Total != 4 || v.Captured != 3 {
		t.Fatalf("Total/Captured = %d/%d, want 4/3", v.Total, v.Captured)
	}
	wantReason := map[string]string{"r-5xx": "error", "r-slow": "slow", "r-both": "error,slow"}
	for _, pm := range v.Postmortem {
		want, ok := wantReason[pm.ID]
		if !ok {
			t.Errorf("unexpected postmortem %q", pm.ID)
			continue
		}
		if pm.Reason != want {
			t.Errorf("%s: reason = %q, want %q", pm.ID, pm.Reason, want)
		}
		if pm.Spans == nil || len(pm.Spans.Children) != 2 {
			t.Errorf("%s: postmortem lost its span tree", pm.ID)
		}
		if len(pm.Phases) != 2 || pm.Phases[0].Name != "hotcore.scan" {
			t.Errorf("%s: phases = %v, want the span tree's top level", pm.ID, pm.Phases)
		}
		if len(pm.Timeline) == 0 {
			t.Errorf("%s: postmortem lost its timeline slice", pm.ID)
		}
	}
	// The compact ring records everything, captured or not.
	for _, rec := range v.Recent {
		if rec.ID == "r-ok" && len(rec.Phases) != 2 {
			t.Errorf("compact record lost phase timings: %v", rec)
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(RequestRecord{ID: "x"}, nil)
	if v := f.Snapshot(); v.Total != 0 {
		t.Errorf("nil recorder snapshot = %+v", v)
	}
}

func TestWritePostmortem(t *testing.T) {
	f := NewFlightRecorder(-1)
	f.Record(RequestRecord{ID: "bad", Status: 502}, requestTracer(nil))
	var buf bytes.Buffer
	if err := f.WritePostmortem(&buf); err != nil {
		t.Fatalf("WritePostmortem: %v", err)
	}
	var doc struct {
		Captured   uint64             `json:"captured"`
		Postmortem []PostmortemRecord `json:"postmortem"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("postmortem dump is not JSON: %v", err)
	}
	if doc.Captured != 1 || len(doc.Postmortem) != 1 || doc.Postmortem[0].ID != "bad" {
		t.Errorf("dump = %+v, want the one captured request", doc)
	}
}

func TestDebugRequestsRoute(t *testing.T) {
	f := ConfigureFlight(0)
	f.Record(RequestRecord{ID: "via-http", Route: "plan", Status: 200}, nil)

	srv := httptest.NewServer(DebugMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatalf("GET /debug/requests: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var v FlightView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(v.Recent) != 1 || v.Recent[0].ID != "via-http" {
		t.Errorf("route served %+v, want the recorded request", v)
	}

	// The route resolves the recorder per request: reconfiguring swaps what
	// it serves without rebuilding the mux.
	ConfigureFlight(0)
	resp2, err := srv.Client().Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatalf("GET after ConfigureFlight: %v", err)
	}
	defer resp2.Body.Close()
	var v2 FlightView
	if err := json.NewDecoder(resp2.Body).Decode(&v2); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if v2.Total != 0 {
		t.Errorf("after reconfigure Total = %d, want 0", v2.Total)
	}
}

func TestTimelineTailView(t *testing.T) {
	tl := NewTimeline(8)
	for i := 0; i < 3; i++ {
		tr := New(fmt.Sprintf("req%d", i))
		tr.SetTimeline(tl)
		tr.Finish()
	}
	tl.Append(Event{Kind: EvQueueDepth, Track: tl.TrackID("pool"), Name: -1, Value: 2})

	all := tl.TailView(10)
	if len(all) != 4 {
		t.Fatalf("TailView(10) = %d events, want 4", len(all))
	}
	if all[0].Track != "req0" || all[0].Name != "req0" || all[0].Kind != "slice" {
		t.Errorf("first event = %+v", all[0])
	}
	if all[3].Kind != "queue.depth" || all[3].Value != 2 {
		t.Errorf("last event = %+v", all[3])
	}

	tail := tl.TailView(2)
	if len(tail) != 2 || tail[0].Name != "req2" {
		t.Errorf("TailView(2) = %+v, want the newest two", tail)
	}
	var nilTL *Timeline
	if nilTL.TailView(4) != nil {
		t.Errorf("nil timeline TailView should be nil")
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := New("root")
	child := tr.Root().Start("phase.a", Str("k", "v"))
	child.Start("inner").End()
	child.End()
	tree := tr.SpanTree()
	if tree == nil || tree.Name != "root" {
		t.Fatalf("SpanTree = %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "phase.a" {
		t.Fatalf("children = %+v", tree.Children)
	}
	if tree.Children[0].Attrs["k"] != "v" {
		t.Errorf("attrs lost: %+v", tree.Children[0].Attrs)
	}
	if len(tree.Children[0].Children) != 1 {
		t.Errorf("grandchild lost")
	}
	var nilTr *Tracer
	if nilTr.SpanTree() != nil {
		t.Errorf("nil tracer SpanTree should be nil")
	}
}

// TestPostmortemKeepsSpansPastRing floods the timeline with more events
// than its ring holds while a request runs: the post-mortem still carries
// every span, because the span tree is read from the tracer's own buffer,
// and attributes set after End still reach it.
func TestPostmortemKeepsSpansPastRing(t *testing.T) {
	f := NewFlightRecorder(time.Nanosecond)
	tl := NewTimeline(64)
	tr := New("httpd.plan")
	tr.SetTimeline(tl)
	for i := 0; i < 10; i++ {
		sp := tr.Root().Start("stage")
		tl.Append(make([]Event, 100)...)
		sp.End()
		sp.SetAttr("i", fmt.Sprint(i))
	}
	f.Record(RequestRecord{ID: "r", Status: 200, LatencyNS: 1}, tr)
	pm := f.Snapshot().Postmortem
	if len(pm) != 1 || pm[0].Spans == nil || len(pm[0].Spans.Children) != 10 {
		t.Fatalf("post-mortem lost spans: %+v", pm)
	}
	if got := pm[0].Spans.Children[9].Attrs["i"]; got != "9" {
		t.Fatalf("attribute set after End = %q, want 9", got)
	}
	if len(pm[0].Phases) != 10 || len(pm[0].Timeline) != postTimelineEvents {
		t.Fatalf("phases %d, timeline tail %d", len(pm[0].Phases), len(pm[0].Timeline))
	}
}
