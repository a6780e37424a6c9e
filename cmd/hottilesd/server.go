package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	hottiles "repro"
	"repro/internal/hotcore"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/planstore"
)

// Daemon-plane observability, served by the same process on /metrics.
var (
	planRequests = obs.NewCounter("hottilesd.plan.requests")
	planBusy     = obs.NewCounter("hottilesd.plan.busy")
	planErrors   = obs.NewCounter("hottilesd.plan.errors")
	planLatency  = obs.NewHistogram("hottilesd.plan.ns")
)

// config fixes the daemon's pipeline parameters. The preprocessing
// configuration is part of every plan's identity: the content hash covers
// it, so a daemon restarted with a different architecture never serves a
// stale plan built under the old one.
type config struct {
	archName   string
	arch       hottiles.Arch
	stratName  string
	strategy   hottiles.Strategy
	kernelName string
	kernel     hottiles.Kernel
	opsPerMAC  float64
	seed       int64

	maxUpload  int64
	reqTimeout time.Duration
	store      planstore.Config

	// log is the daemon's structured logger; per-request loggers derive
	// from it in the observed middleware. nil (the tests' default) is a
	// valid no-op logger.
	log *obs.Logger
}

// server routes the plan API and the PR-5 debug plane on one mux.
type server struct {
	cfg   config
	store *planstore.Store
	mux   *http.ServeMux
	log   *obs.Logger
	// tl records per-request slices; post-mortem captures take its tail.
	tl *obs.Timeline

	// buildHook, when non-nil, runs at the start of every plan build.
	// Tests use it to hold builds open so admission-control behavior
	// (queue overflow, coalescing, drain) is deterministic.
	buildHook func()
}

// serverTimelineEvents sizes the daemon's request timeline ring: enough
// recent slices for a post-mortem tail without unbounded growth.
const serverTimelineEvents = 4096

// newServer wires the plan routes onto the observability mux, so one
// listener serves plans, /metrics, /progress and pprof together. Every
// plan-API route passes through the observed middleware (request IDs, RED
// metrics, access log, flight recorder).
func newServer(cfg config) (*server, error) {
	store, err := planstore.New(cfg.store)
	if err != nil {
		return nil, err
	}
	s := &server{cfg: cfg, store: store, log: cfg.log, tl: obs.NewTimeline(serverTimelineEvents)}
	mux := obs.DebugMux()
	mux.HandleFunc("POST /plan", s.observed("plan", redPlan, s.handleBuildPlan))
	mux.HandleFunc("POST /gnn", s.observed("gnn", redGNN, s.handleGNN))
	mux.HandleFunc("GET /plan/{hash}", s.observed("planget", redPlanGet, s.handleGetPlan))
	mux.HandleFunc("GET /healthz", s.observed("healthz", redHealthz, s.handleHealthz))
	s.mux = mux
	return s, nil
}

// planHash is the content address of a plan: the plan wire version and
// the preprocessing configuration, followed by the exact MatrixMarket
// bytes. Two uploads of the same file under the same daemon configuration
// always collapse onto one cache entry (and one in-flight build), and a
// -store-dir spill written under another wire version is never looked up.
func (s *server) planHash(matrix []byte) string {
	return planKey(&s.cfg, hotcore.PlanWireVersion, matrix)
}

// planKey is planHash for an explicit wire version.
func planKey(cfg *config, wireVersion int, matrix []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "wire=%d arch=%s tile=%dx%d k=%d strategy=%s kernel=%s ops=%g seed=%d\n",
		wireVersion, cfg.archName, cfg.arch.TileH, cfg.arch.TileW, cfg.arch.K,
		cfg.stratName, cfg.kernelName, cfg.opsPerMAC, cfg.seed)
	h.Write(matrix)
	return hex.EncodeToString(h.Sum(nil))
}

// readUpload reads the request body, at most cfg.maxUpload bytes, into a
// buffer sized from Content-Length up front (a declared length over the
// limit is refused before any read). On failure it writes the 413 or 400
// response and returns false.
func (s *server) readUpload(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.maxUpload
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		// MinRead of spare room lets ReadFrom see EOF without growing.
		buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
		if _, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err == nil {
			return buf.Bytes(), true
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("hottilesd: upload exceeds %d bytes", limit),
			http.StatusRequestEntityTooLarge)
		return nil, false
	}
	http.Error(w, "hottilesd: reading upload: "+err.Error(), http.StatusBadRequest)
	return nil, false
}

// errBadMatrix marks failures caused by the uploaded bytes (parse or
// validation), which map to 400 rather than 500.
type errBadMatrix struct{ err error }

func (e errBadMatrix) Error() string { return e.err.Error() }
func (e errBadMatrix) Unwrap() error { return e.err }

// buildPlan runs the full pipeline for one upload: parse the matrix, run
// scan → model → partition → format generation with ctx threaded through
// the stage boundaries, and serialize the plan to its wire form.
func (s *server) buildPlan(ctx context.Context, matrix []byte) ([]byte, error) {
	if s.buildHook != nil {
		s.buildHook()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := mm.Parse(matrix)
	if err != nil {
		return nil, errBadMatrix{err}
	}
	a := s.cfg.arch
	plan, err := hottiles.PartitionCtx(ctx, m, &a, hottiles.PartitionOptions{
		Strategy:  s.cfg.strategy,
		OpsPerMAC: s.cfg.opsPerMAC,
		Kernel:    s.cfg.kernel,
		Seed:      s.cfg.seed,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, errBadMatrix{err}
	}
	var buf bytes.Buffer
	if err := hottiles.WritePlan(&buf, plan); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// handleBuildPlan is POST /plan: upload a MatrixMarket body, get the gob
// plan back. Identical in-flight uploads share one pipeline run; overload
// is refused with 429 and a Retry-After estimate instead of queueing
// without bound.
func (s *server) handleBuildPlan(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	planRequests.Inc()
	body, ok := s.readUpload(w, r)
	if !ok {
		return
	}
	hash := s.planHash(body)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.reqTimeout)
	defer cancel()
	plan, err := s.store.Get(ctx, hash, func(ctx context.Context) ([]byte, error) {
		return s.buildPlan(ctx, body)
	})
	if err != nil {
		s.planError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-gob")
	w.Header().Set("X-Plan-Hash", hash)
	w.Header().Set("Content-Length", strconv.Itoa(len(plan)))
	w.Write(plan)
	planLatency.ObserveSince(t0)
}

// planError maps a pipeline or admission failure onto its status code and
// logs it with the request's ID (the logger rides r's context).
func (s *server) planError(w http.ResponseWriter, r *http.Request, err error) {
	planErrors.Inc()
	log := obs.CtxLog(r.Context())
	switch {
	case errors.Is(err, planstore.ErrBusy):
		planBusy.Inc()
		retry := int(math.Ceil(s.store.RetryAfter().Seconds()))
		log.Warn("httpd.busy", obs.Int("retry.after.s", retry))
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "hottilesd: preprocessing queue full, retry later",
			http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		log.Error("httpd.timeout", obs.Str("err", err.Error()))
		http.Error(w, "hottilesd: preprocessing exceeded the request timeout",
			http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this response.
		log.Warn("httpd.canceled")
		http.Error(w, "hottilesd: request canceled", http.StatusServiceUnavailable)
	default:
		var bad errBadMatrix
		if errors.As(err, &bad) {
			log.Warn("httpd.badrequest", obs.Str("err", bad.Error()))
			http.Error(w, "hottilesd: "+bad.Error(), http.StatusBadRequest)
			return
		}
		log.Error("httpd.fail", obs.Str("err", err.Error()))
		http.Error(w, "hottilesd: "+err.Error(), http.StatusInternalServerError)
	}
}

// handleGetPlan is GET /plan/{hash}: fetch a previously built plan by its
// content hash — the paper's train-once/infer-many flow (§VI-B) over HTTP.
// It never triggers a build; an unknown hash is 404.
func (s *server) handleGetPlan(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	plan, ok := s.store.Peek(hash)
	if !ok {
		http.Error(w, "hottilesd: no plan with hash "+hash, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-gob")
	w.Header().Set("X-Plan-Hash", hash)
	w.Header().Set("Content-Length", strconv.Itoa(len(plan)))
	w.Write(plan)
}

// handleHealthz reports liveness plus the store's counters, so a probe
// (or a human with curl) sees queue pressure at a glance.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Status string          `json:"status"`
		Arch   string          `json:"arch"`
		Store  planstore.Stats `json:"store"`
	}{"ok", s.cfg.archName, s.store.Stats()})
}
