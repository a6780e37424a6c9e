package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeLogLines unmarshals each line of a JSON log stream, failing on any
// line that is not a JSON object.
func decodeLogLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %q is not valid JSON: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Level: slog.LevelDebug, Format: "json"})
	l.Info("test.event", slog.String("key", "value"), slog.Int("n", 7))
	l.Error("test.fail", slog.String("err", `quote " backslash \ newline`+"\n"))

	// The record keys lead each line, in order.
	if line := buf.String(); !strings.HasPrefix(line, `{"ts":"`) || !strings.Contains(line, `,"level":"info","msg":"test.event",`) {
		t.Errorf("JSON line does not lead with ts, level, msg: %s", line)
	}
	recs := decodeLogLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r := recs[0]
	if r["level"] != "info" || r["msg"] != "test.event" || r["key"] != "value" || r["n"] != 7.0 {
		t.Errorf("first record wrong: %v", r)
	}
	ts, _ := r["ts"].(string)
	if at, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") || time.Since(at) > time.Minute {
		t.Errorf("ts %q is not a current UTC RFC3339 time: %v", ts, err)
	}
	if _, ok := r["time"]; ok {
		t.Errorf("record kept the stdlib time key: %v", r)
	}
	if recs[1]["level"] != "error" {
		t.Errorf("second record level = %v, want error", recs[1]["level"])
	}
	if want := `quote " backslash \ newline` + "\n"; recs[1]["err"] != want {
		t.Errorf("escaping round-trip: got %q want %q", recs[1]["err"], want)
	}
}

func TestLoggerText(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{})
	l.Debug("test.hidden")
	l.Info("test.event", slog.String("plain", "bare"), slog.String("spaced", "two words"))
	line := strings.TrimRight(buf.String(), "\n")
	if !strings.HasPrefix(line, "ts=") || strings.Contains(line, "test.hidden") {
		t.Errorf("text line %q: want one info record leading with ts=", line)
	}
	for _, want := range []string{" level=info msg=test.event", " plain=bare", ` spaced="two words"`} {
		if !strings.Contains(line, want) {
			t.Errorf("text line %q missing %q", line, want)
		}
	}
}

func TestLoggerLevelsAndWith(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Level: slog.LevelWarn, Format: "json"})
	child := l.With(slog.String("req", "abc123"))
	child.Info("test.hidden") // below level
	child.Warn("test.shown", slog.String("extra", "x"))
	recs := decodeLogLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (info filtered)", len(recs))
	}
	if recs[0]["req"] != "abc123" || recs[0]["extra"] != "x" || recs[0]["level"] != "warn" {
		t.Errorf("With attrs missing: %v", recs[0])
	}

	// Two Withs off one parent must not clobber each other's attrs.
	buf.Reset()
	l.With(slog.String("which", "a")).Warn("test.a")
	l.With(slog.String("which", "b")).Warn("test.b")
	if recs = decodeLogLines(t, &buf); len(recs) != 2 || recs[0]["which"] != "a" || recs[1]["which"] != "b" {
		t.Errorf("sibling With loggers interfere: %v", recs)
	}
	if got := replaceLogAttr(nil, slog.Any(slog.LevelKey, slog.LevelWarn+2)).Value.String(); got != "warn+2" {
		t.Errorf("level warn+2 spelled %q", got)
	}
}

func TestLoggerSampling(t *testing.T) {
	var buf bytes.Buffer
	// With attrs: derived handlers share one window.
	h := NewLogger(&buf, LogOptions{Level: slog.LevelDebug, Format: "json", SampleRate: 5}).
		With(slog.String("req", "r1")).Handler()
	// Records carry their own times, so the windows are exact.
	sec := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	emit := func(at time.Time, lv slog.Level, msg string) {
		h.Handle(context.Background(), slog.NewRecord(at, lv, msg, 0))
	}
	msgs := func() map[string]int {
		n := map[string]int{}
		for _, r := range decodeLogLines(t, &buf) {
			n[r["msg"].(string)]++
		}
		return n
	}

	before := logDropped.Load()
	for i := 0; i < 20; i++ {
		emit(sec.Add(time.Duration(i)*time.Millisecond), slog.LevelInfo, "test.flood")
	}
	emit(sec.Add(500*time.Millisecond), slog.LevelWarn, "test.always") // warn bypasses the bound
	if n := msgs(); n["test.flood"] != 5 || n["test.always"] != 1 {
		t.Errorf("first window passed %v, want 5 test.flood and the warn", n)
	}
	if d := logDropped.Load() - before; d != 15 {
		t.Errorf("obs.log.dropped rose by %d, want 15", d)
	}

	// The first sub-warn record of the next window reports the drops, once.
	buf.Reset()
	emit(sec.Add(time.Second), slog.LevelDebug, "test.resume")
	emit(sec.Add(time.Second+time.Millisecond), slog.LevelDebug, "test.resume")
	recs := decodeLogLines(t, &buf)
	if len(recs) != 3 || recs[0]["msg"] != "obs.log.sampled" || msgs()["obs.log.sampled"] != 1 {
		t.Fatalf("want one obs.log.sampled line, then the two records:\n%s", buf.String())
	}
	if s := recs[0]; s["level"] != "warn" || s["dropped"] != 15.0 || s["req"] != "r1" {
		t.Errorf("obs.log.sampled line wrong: %v", s)
	}
}

func TestLoggerConcurrentLinesAtomic(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf, LogOptions{Format: "json"})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rl := l.With(slog.String("worker", fmt.Sprintf("w%d", w)))
			for i := 0; i < per; i++ {
				rl.Info("test.concurrent", slog.Int("i", i))
			}
		}(w)
	}
	wg.Wait()
	recs := decodeLogLines(t, &buf.b) // fails on any torn line
	if len(recs) != workers*per {
		t.Errorf("got %d records, want %d", len(recs), workers*per)
	}
}

// syncBuf records every Write separately, so a record split across two
// writes would show up as a torn line.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(p) == 0 || p[len(p)-1] != '\n' {
		return 0, fmt.Errorf("partial record write %q", p)
	}
	return s.b.Write(p)
}

func TestParseLogFlag(t *testing.T) {
	cases := []struct {
		in      string
		level   slog.Level
		format  string
		wantErr bool
	}{
		{"", slog.LevelInfo, "text", false},
		{"debug", slog.LevelDebug, "text", false},
		{"json", slog.LevelInfo, "json", false},
		{"warn:json", slog.LevelWarn, "json", false},
		{"warning", slog.LevelWarn, "text", false},
		{"json:error", slog.LevelError, "json", false},
		{"DEBUG:Text", slog.LevelDebug, "text", false},
		{"bogus", slog.LevelInfo, "text", true},
	}
	for _, c := range cases {
		o, err := ParseLogFlag(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseLogFlag(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (o.Level != c.level || o.Format != c.format) {
			t.Errorf("ParseLogFlag(%q) = %+v, want level %v format %q", c.in, o, c.level, c.format)
		}
	}
}

func TestCtxLogNoop(t *testing.T) {
	l := CtxLog(context.Background())
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("the logger of a bare context must be disabled")
	}
	l.LogAttrs(context.Background(), slog.LevelError, "test.noop", slog.String("k", "v"))
	if n := testing.AllocsPerRun(100, func() {
		l.LogAttrs(context.Background(), slog.LevelDebug, "test.noop", slog.String("k", "v"))
	}); n != 0 {
		t.Errorf("logging to the discard logger: %v allocs, want 0", n)
	}
}
