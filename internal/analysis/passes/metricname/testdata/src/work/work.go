// Package work exercises the metricname analyzer against the obs stub.
package work

import (
	"context"
	"log/slog"

	"repro/internal/obs"
)

const latencyName = "work.step.ns"

var (
	steps   = obs.NewCounter("work.steps")     // silent
	depth   = obs.NewGauge("work.pool.depth")  // silent
	latency = obs.NewHistogram(latencyName)    // silent: constant expression
	wall    = obs.NewHistogram("work.wall")    // want `histogram "work.wall" must end in .ns`
	caps    = obs.NewCounter("Work.Steps")     // want `does not match the registry grammar`
	under   = obs.NewCounter("work_steps")     // want `does not match the registry grammar`
	digits  = obs.NewCounter("work.2fast")     // want `does not match the registry grammar`
	dup     = obs.NewCounter("work.steps")     // want `metric "work.steps" already registered`
	gmax    = obs.NewGauge("work.queue")       // silent: claims work_queue and work_queue_max
	clash   = obs.NewCounter("work.queue.max") // want `collides with "work.queue" .* promNamer would rename`
	hsum    = obs.NewHistogram("work.io.ns")   // silent: claims work_io_ns(+suffixes)
	hclash  = obs.NewCounter("work.io.ns.sum") // want `collides with "work.io.ns"`
)

func dynamic(kind string) *obs.Counter {
	return obs.NewCounter("work." + kind) // want `name must be a compile-time constant`
}

func tracks(tl *obs.Timeline, slot string) {
	_ = tl.TrackID("par/pool")    // silent: track grammar allows slashes
	_ = tl.TrackID("par/" + slot) // silent: dynamic track names are allowed
	_ = tl.TrackID("Par Pool")    // want `does not match the track grammar`
}

// The per-route RED triple goes through the same suite-wide duplicate and
// prom-collision checks as any other registration.
var (
	httpdReq  = obs.NewCounter("httpd.work.requests")     // silent
	httpdErr  = obs.NewCounter("httpd.work.errors")       // silent
	httpdLat  = obs.NewHistogram("httpd.work.latency.ns") // silent
	httpdDup  = obs.NewCounter("httpd.work.requests")     // want `metric "httpd.work.requests" already registered`
	httpdProm = obs.NewGauge("httpd.work.latency.ns.sum") // want `collides with "httpd.work.latency.ns"`
	httpdCase = obs.NewCounter("httpd.Work.requests")     // want `does not match the registry grammar`
)

const accessMsg = "work.httpd.access"

func logs(ctx context.Context, log *slog.Logger, route string, lv slog.Level) {
	log.Info("work.start")                                                           // silent
	log.LogAttrs(ctx, lv, accessMsg, slog.String("req", "id"))                       // silent: constant-expression message and key
	log.Debug("work.retry", slog.Float64("retry.after.s", 1.5))                      // silent: dotted key fits the grammar
	log.InfoContext(ctx, "work.ctx", slog.Duration("dur", 0), slog.Bool("ok", true)) // silent
	log.Warn("Work.Start")                                                           // want `log message "Work.Start" does not match the log-name grammar`
	log.Error("work_fail")                                                           // want `log message "work_fail" does not match the log-name grammar`
	log.Info("work." + route)                                                        // want `log message must be a compile-time constant`
	log.ErrorContext(ctx, "Work.ctx")                                                // want `log message "Work.ctx" does not match the log-name grammar`
	log.Log(ctx, lv, "work."+route)                                                  // want `log message must be a compile-time constant`
	log.LogAttrs(ctx, lv, "work.ok", slog.Int("N", 1))                               // want `log attr key "N" does not match the log-name grammar`
	log.LogAttrs(ctx, lv, "work.ok2", slog.String("route."+route, "x"))              // want `log attr key must be a compile-time constant`
	log.Info("work.ok3", slog.Int64("bytes_in", 1), slog.Any("Val", nil))            // want `log attr key "bytes_in"` `log attr key "Val"`
	slog.Warn("Work.Default")                                                        // want `log message "Work.Default" does not match the log-name grammar`
	slog.LogAttrs(ctx, lv, "work.default", slog.Any("level", lv))                    // silent: the default logger is held to the same rules
	_ = lv.String()                                                                  // silent: a method named like an attr constructor
	_ = obs.Str("span.attr", "v")                                                    // silent: span attr keys reach the log via obs.span.end
	_ = obs.Int("Tiles", 1)                                                          // want `log attr key "Tiles" does not match the log-name grammar`
	_ = obs.F64("pred."+route, 1)                                                    // want `log attr key must be a compile-time constant`
}
