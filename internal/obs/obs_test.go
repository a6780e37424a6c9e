package obs

import (
	"bytes"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Root() != nil {
		t.Fatal("nil tracer has a root")
	}
	sp := tr.Phase("exec").Start("child", Str("k", "v"))
	if sp != nil {
		t.Fatal("nil phase produced a span")
	}
	sp.End()
	sp.SetAttr("a", "b")
	tr.SetTimeline(NewTimeline(4))
	tr.SetLogger(NewLogger(io.Discard, LogOptions{}))
	tr.Finish()
	if tr.SpanTree() != nil {
		t.Fatal("nil tracer produced a span tree")
	}
	tr.SetConfig("k", "v")
	tr.AddOutput("x", []byte("y"))
	if tr.Manifest() != nil {
		t.Fatal("nil tracer produced a manifest")
	}
}

func TestSpanTree(t *testing.T) {
	tr := New("run")
	ph := tr.Phase("exec")
	if tr.Phase("exec") != ph {
		t.Fatal("Phase not deduplicated by name")
	}
	sp := ph.Start("job", Int("tiles", 42))
	time.Sleep(time.Millisecond)
	sp.End()
	d := tr.SpanTree().Children[0].Children[0].DurationNS
	if d <= 0 {
		t.Fatalf("ended span has duration %v", d)
	}
	time.Sleep(time.Millisecond)
	sp.End() // idempotent
	if again := tr.SpanTree().Children[0].Children[0].DurationNS; again != d {
		t.Fatal("second End changed the duration")
	}

	m := tr.Manifest()
	if m.Name != "run" {
		t.Fatalf("manifest name %q", m.Name)
	}
	phases := m.Phases()
	if len(phases) != 1 || phases[0] != "exec" {
		t.Fatalf("phases %v", phases)
	}
	if m.Spans.DurationNS <= 0 {
		t.Fatal("root not closed by Finish")
	}
	job := m.Spans.Children[0].Children[0]
	if job.Name != "job" || job.Attrs["tiles"] != "42" {
		t.Fatalf("child span %+v", job)
	}
	if job.DurationNS < int64(time.Millisecond) {
		t.Fatalf("child duration %d ns", job.DurationNS)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("race")
	ph := tr.Phase("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := ph.Start("item", Int("i", i))
			sp.SetAttr("done", "yes")
			sp.End()
		}(i)
	}
	wg.Wait()
	tr.Finish()
	m := tr.Manifest()
	if got := len(m.Spans.Children[0].Children); got != 32 {
		t.Fatalf("%d children, want 32", got)
	}
}

func TestCountersAndGauges(t *testing.T) {
	c := NewCounter("test.counter")
	if NewCounter("test.counter") != c {
		t.Fatal("NewCounter not idempotent")
	}
	before := c.Load()
	c.Inc()
	c.Add(4)
	if got := c.Load() - before; got != 5 {
		t.Fatalf("counter delta %d, want 5", got)
	}

	g := NewGauge("test.gauge")
	g.Set(3)
	g.Set(7)
	g.Set(2)
	if g.Load() != 2 || g.Max() != 7 {
		t.Fatalf("gauge cur=%d max=%d", g.Load(), g.Max())
	}

	snap := Snapshot()
	if snap["test.counter"] < 5 {
		t.Fatalf("snapshot counter %d", snap["test.counter"])
	}
	if snap["test.gauge"] != 2 || snap["test.gauge.max"] != 7 {
		t.Fatalf("snapshot gauge %d/%d", snap["test.gauge"], snap["test.gauge.max"])
	}
	if _, ok := RegistrySnapshot().Gauges["test.gauge"]; !ok {
		t.Fatal("gauge missing from RegistrySnapshot")
	}

	var nilC *Counter
	nilC.Inc()
	nilC.Add(2)
	if nilC.Load() != 0 {
		t.Fatal("nil counter not zero")
	}
	var nilG *Gauge
	nilG.Set(9)
	if nilG.Load() != 0 || nilG.Max() != 0 {
		t.Fatal("nil gauge not zero")
	}
}

func TestAttrHelpers(t *testing.T) {
	if a := Str("k", "v"); a.Key != "k" || a.Val != "v" {
		t.Fatalf("Str: %+v", a)
	}
	if a := Int("n", 12); a.Val != "12" {
		t.Fatalf("Int: %+v", a)
	}
	if a := F64("x", 1.5); a.Val != "1.5" {
		t.Fatalf("F64: %+v", a)
	}
}

// TestSpanEndLines: a tracer with a debug logger writes one obs.span.end
// line per ended span, carrying the span's name, duration and attributes;
// a second End and Finish's implicit closes write nothing.
func TestSpanEndLines(t *testing.T) {
	var buf bytes.Buffer
	tr := New("root")
	tr.SetLogger(NewLogger(&buf, LogOptions{Level: slog.LevelDebug, Format: "json"}).
		With(slog.String("req", "r1")))
	sp := tr.Phase("work").Start("stage.a", Str("n", "3"))
	sp.SetAttr("tiles", "12")
	sp.End()
	sp.End()
	tr.Root().Start("stage.b").End()
	tr.Phase("work").Start("left.open")
	tr.Finish()

	recs := decodeLogLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d lines, want one per End:\n%s", len(recs), buf.String())
	}
	a := recs[0]
	if a["msg"] != "obs.span.end" || a["level"] != "debug" || a["span"] != "stage.a" ||
		a["n"] != "3" || a["tiles"] != "12" || a["req"] != "r1" {
		t.Errorf("span-end line wrong: %v", a)
	}
	if d, err := time.ParseDuration(a["dur"].(string)); err != nil || d < 0 {
		t.Errorf("span-end dur %v: %v", a["dur"], err)
	}
	if recs[1]["span"] != "stage.b" || recs[1]["tiles"] != nil {
		t.Errorf("second span-end line wrong: %v", recs[1])
	}
}

// TestSpanEndInfoLevel: at info level the span-end line is skipped without
// cost — nothing is written, and Start/End allocate what they do with no
// logger attached.
func TestSpanEndInfoLevel(t *testing.T) {
	var buf bytes.Buffer
	logged := New("root")
	logged.SetLogger(NewLogger(&buf, LogOptions{Level: slog.LevelInfo, Format: "json"}))
	bare := New("root")
	startEnd := func(tr *Tracer) float64 {
		return testing.AllocsPerRun(200, func() { tr.Root().Start("stage", Str("k", "v")).End() })
	}
	if got, want := startEnd(logged), startEnd(bare); got > want {
		t.Errorf("Start/End with an info-level logger: %v allocs, want <= %v (no logger)", got, want)
	}
	if buf.Len() != 0 {
		t.Errorf("info-level tracer logged: %s", buf.String())
	}
}
