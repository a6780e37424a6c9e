// Structured logging over log/slog (DESIGN.md §18). NewLogger builds a
// *slog.Logger on the stdlib JSON or text handler, with ReplaceAttr keeping
// this repo's record keys (ts in UTC, lowercase level, msg), and wraps it in
// a sampler that rate-bounds sub-warn records so a hot loop logging per
// request cannot melt the daemon. The stdlib handlers write each record
// with one Write under their own mutex, so concurrent lines stay whole.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"time"
)

// LogOptions configures NewLogger.
type LogOptions struct {
	// Level is the minimum severity emitted (default slog.LevelInfo).
	Level slog.Level
	// Format selects "text" (default) or "json" output.
	Format string
	// SampleRate bounds records below warn to this many per second;
	// 0 means unlimited. Warn and Error always pass. Dropped records are
	// counted (obs.log.dropped) and summarized when the stream resumes.
	SampleRate int
}

// ParseLogFlag parses the CLIs' -log flag value: "level", "format", or
// "level:format" (e.g. "debug", "json", "warn:json").
func ParseLogFlag(spec string) (LogOptions, error) {
	o := LogOptions{Format: "text"}
	if spec == "" {
		return o, nil
	}
	for _, part := range strings.Split(strings.ToLower(spec), ":") {
		switch part {
		case "text", "json":
			o.Format = part
		case "warning":
			o.Level = slog.LevelWarn
		default:
			if err := o.Level.UnmarshalText([]byte(part)); err != nil {
				return o, fmt.Errorf("obs: bad -log value %q (want debug, info, warn or error; text or json): %w", spec, err)
			}
		}
	}
	return o, nil
}

// NewLogger builds a logger writing to w.
func NewLogger(w io.Writer, o LogOptions) *slog.Logger {
	ho := &slog.HandlerOptions{Level: o.Level, ReplaceAttr: replaceLogAttr}
	var h slog.Handler = slog.NewTextHandler(w, ho)
	if o.Format == "json" {
		h = slog.NewJSONHandler(w, ho)
	}
	if o.SampleRate > 0 {
		h = sampled{h, &logWindow{max: o.SampleRate}}
	}
	return slog.New(h)
}

// levelNames spells the standard levels in lowercase without allocating.
var levelNames = map[slog.Level]string{
	slog.LevelDebug: "debug", slog.LevelInfo: "info", slog.LevelWarn: "warn", slog.LevelError: "error",
}

// replaceLogAttr renames the record time to ts (in UTC) and spells the
// level in lowercase; every other attr passes through.
func replaceLogAttr(groups []string, a slog.Attr) slog.Attr {
	switch {
	case len(groups) > 0:
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.Time("ts", a.Value.Time().UTC())
	case a.Key == slog.LevelKey && a.Value.Kind() == slog.KindAny:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			name, std := levelNames[lv]
			if !std {
				name = strings.ToLower(lv.String())
			}
			return slog.String(slog.LevelKey, name)
		}
	}
	return a
}

// logDropped counts records suppressed by the sampler, across all loggers.
var logDropped = NewCounter("obs.log.dropped")

// sampled bounds the records below warn that reach the wrapped handler to
// max a second, so an overloaded daemon logging per request degrades to a
// bounded stream plus a drop summary. Handlers derived with WithAttrs/
// WithGroup share the window, so one -log-rate budget covers the process.
type sampled struct {
	slog.Handler
	*logWindow
}

// logWindow is the sampler's state for the current second.
type logWindow struct {
	mu      sync.Mutex
	sec     int64 // unix second the window covers
	n, max  int   // records emitted this window, and the bound
	dropped int64 // records suppressed this window
}

// allow reports whether a record may be emitted now, plus how many records
// the previous window dropped (nonzero exactly once per resumed stream, so
// the caller can emit one summary line).
func (w *logWindow) allow(now time.Time) (ok bool, droppedPrev int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if sec := now.Unix(); sec != w.sec {
		droppedPrev = w.dropped
		w.sec, w.n, w.dropped = sec, 0, 0
	}
	if w.n >= w.max {
		w.dropped++
		logDropped.Inc()
		return false, droppedPrev
	}
	w.n++
	return true, droppedPrev
}

func (h sampled) Handle(ctx context.Context, r slog.Record) error {
	if r.Level < slog.LevelWarn {
		ok, resumed := h.allow(r.Time)
		if resumed > 0 {
			sum := slog.NewRecord(r.Time, slog.LevelWarn, "obs.log.sampled", 0)
			sum.AddAttrs(slog.Int64("dropped", resumed))
			h.Handler.Handle(ctx, sum)
		}
		if !ok {
			return nil
		}
	}
	return h.Handler.Handle(ctx, r)
}

func (h sampled) WithAttrs(as []slog.Attr) slog.Handler {
	return sampled{h.Handler.WithAttrs(as), h.logWindow}
}

func (h sampled) WithGroup(name string) slog.Handler {
	return sampled{h.Handler.WithGroup(name), h.logWindow}
}

// discardLog is what CtxLog returns when ctx carries no logger: a nil
// *slog.Logger panics, and slog.DiscardHandler needs go1.24. No record
// reaches its level.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
