// Package planstore is the content-addressed plan cache behind the
// hottilesd daemon: a bounded store keyed by matrix+config hash, with
// singleflight build deduplication, admission control (bounded active
// builds plus a bounded wait queue — overload is refused, not buffered
// without limit), an in-memory cache of ready-to-use values, and an
// optional disk spill so plans survive restarts. The memory cache splits
// its byte budget into two LRU segments, the W-TinyLFU shape: a newly
// built plan enters a window of 1/8 of the budget and earns a place in the
// main segment with its second request, so one-off uploads age out of the
// window without displacing the plans that are reused.
//
// The store is generic over its value: the daemon holds decoded plans, so
// a hit hands back a plan with no decode, and tests hold bytes. A Codec
// says what a value costs against the budget and how it is written to and
// read back from the spill; nothing here depends on the plan format, so
// the store is testable without running the pipeline.
package planstore

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Process-wide store observability, aggregated across instances (a daemon
// runs one store; tests may run several). Per-instance numbers come from
// Stats.
var (
	storeBuilds       = obs.NewCounter("planstore.builds")
	storeBuildErrs    = obs.NewCounter("planstore.build.errors")
	storeMemHits      = obs.NewCounter("planstore.hits.mem")
	storeDiskHits     = obs.NewCounter("planstore.hits.disk")
	storeCoalesced    = obs.NewCounter("planstore.coalesced")
	storeRejected     = obs.NewCounter("planstore.rejected")
	storeEvictions    = obs.NewCounter("planstore.evictions")
	storePromotions   = obs.NewCounter("planstore.promotions")
	storeSpillErrs    = obs.NewCounter("planstore.spill.errors")
	storeSpillCorrupt = obs.NewCounter("planstore.spill.corrupt")
	storeActive       = obs.NewGauge("planstore.active")
	storeQueued       = obs.NewGauge("planstore.queued")
	storeBuildNS      = obs.NewHistogram("planstore.build.ns")
)

// ErrBusy is returned when both the active-build slots and the wait queue
// are full. Callers translate it into backpressure (hottilesd answers
// 429 with a Retry-After derived from RetryAfter).
var ErrBusy = errors.New("planstore: build queue full")

// Config sizes a Store. The zero value is usable: defaults are one active
// build per core (GOMAXPROCS; a build has serial stages, so one build
// alone leaves cores idle — DESIGN.md §14), a 64-deep wait queue, a
// 256 MiB memory cache, and no disk spill.
type Config struct {
	// Dir, when non-empty, is the disk spill directory: every built plan
	// is persisted there (write-to-temp, rename) and memory misses check
	// it before rebuilding. The directory is created if missing.
	Dir string
	// MaxBytes bounds the in-memory cache (the sum of the values'
	// Codec.Size): 1/8 of it is the window that new values enter, the rest
	// the main segment that a second request promotes them to.
	MaxBytes int64
	// MaxActive bounds concurrently running builds; zero or negative
	// means one per core (runtime.GOMAXPROCS at New).
	MaxActive int
	// MaxQueue bounds builders waiting for an active slot; a request
	// arriving with the queue full gets ErrBusy. Negative means "no
	// queue": every build either gets a slot immediately or is refused.
	MaxQueue int
}

const (
	defaultMaxBytes = 256 << 20
	defaultMaxQueue = 64
	// windowShare is the budget's divisor for the window segment: 32 MiB of
	// the default 256 MiB, room for the plans a serving workload primes
	// before it reuses them (DESIGN.md §14).
	windowShare = 8
)

// Stats is a point-in-time view of one Store's behavior. Builds counts
// build function invocations — the singleflight and cache tests pin their
// guarantees on it.
type Stats struct {
	Builds       int64 // build invocations (cache misses that ran the pipeline)
	BuildErrors  int64 // builds that returned an error (not cached)
	MemHits      int64 // lookups served from the memory LRU
	DiskHits     int64 // lookups served from the spill directory
	Coalesced    int64 // lookups that joined another caller's in-flight build
	Rejected     int64 // lookups refused with ErrBusy
	Evictions    int64 // values dropped from either memory segment
	Promotions   int64 // window values moved to main by a memory hit
	SpillErrors  int64 // built values the spill directory failed to persist
	SpillCorrupt int64 // spill files that failed their checksum or decoding and were removed
	Active       int   // builds running now
	Queued       int   // builders waiting for a slot now
	CachedPlans  int   // values in memory, both segments
	CachedBytes  int64 // sum of the values' sizes in memory, both segments
	WindowPlans  int   // of CachedPlans, values in the window
	WindowBytes  int64 // of CachedBytes, bytes in the window
}

// Codec describes a Store's values: what each costs against the memory
// budget, and how it crosses the spill. Encode's output goes into the
// spill file's checksum frame; Decode reads a framed payload back, and a
// payload it rejects marks the file corrupt.
type Codec[V any] struct {
	Size   func(V) int64
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// segment is one LRU of the memory cache, bounded by its own share of
// Config.MaxBytes.
type segment struct {
	name  string     // "window" or "main", the planstore.evict segment attr
	lru   *list.List // front = most recently used
	bytes int64
	max   int64
}

type memEntry[V any] struct {
	key  string
	val  V
	size int64
	seg  *segment
}

// Store is the content-addressed cache. Create with New.
type Store[V any] struct {
	cfg   Config
	codec Codec[V]

	mu           sync.Mutex
	flights      map[string]*flight[V]
	mem          map[string]*list.Element // both segments
	window, main segment

	slots  chan struct{} // buffered MaxActive: holding a token = building
	queued atomic.Int64

	builds, buildErrs, memHits, diskHits atomic.Int64
	coalesced, rejected, evictions       atomic.Int64
	promotions                           atomic.Int64
	spillErrs, spillCorrupt              atomic.Int64

	// ewmaBuildNS tracks recent build cost for Retry-After estimation.
	ewmaBuildNS atomic.Int64
}

// New returns a Store sized by cfg over values described by codec,
// creating the spill directory when one is configured.
func New[V any](cfg Config, codec Codec[V]) (*Store[V], error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = defaultMaxQueue
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("planstore: spill dir: %w", err)
		}
	}
	win := cfg.MaxBytes / windowShare
	return &Store[V]{
		cfg:     cfg,
		codec:   codec,
		flights: map[string]*flight[V]{},
		mem:     map[string]*list.Element{},
		window:  segment{name: "window", lru: list.New(), max: win},
		main:    segment{name: "main", lru: list.New(), max: cfg.MaxBytes - win},
		slots:   make(chan struct{}, cfg.MaxActive),
	}, nil
}

// Get returns the value for key, building it at most once per miss:
// concurrent callers with the same key share one build (followers do not
// consume queue slots). Build errors are returned to every waiter of that
// flight but are not cached — the next Get for the key tries again,
// because unlike par.Cache's deterministic memos a daemon build can fail
// transiently (timeout, cancellation). A follower whose ctx expires stops
// waiting without disturbing the build.
func (s *Store[V]) Get(ctx context.Context, key string, build func(ctx context.Context) (V, error)) (V, error) {
	log := obs.CtxLog(ctx)
	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		val := s.hitLocked(ctx, e)
		s.mu.Unlock()
		log.LogAttrs(ctx, slog.LevelDebug, "planstore.hit", slog.String("key", keyShort(key)))
		return val, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		storeCoalesced.Inc()
		log.LogAttrs(ctx, slog.LevelDebug, "planstore.join", slog.String("key", keyShort(key)))
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			log.LogAttrs(ctx, slog.LevelWarn, "planstore.join.abandon",
				slog.String("key", keyShort(key)), slog.String("err", ctx.Err().Error()))
			var zero V
			return zero, fmt.Errorf("planstore: waiting for in-flight build: %w", ctx.Err())
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	var disk bool
	f.val, disk, f.err = s.runBuild(ctx, key, build)

	s.mu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		s.putLocked(ctx, key, f.val, disk)
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// Peek returns the value for key if it is already cached in memory or on
// disk, without ever building. A hit counts as a request for key like a
// Get hit does: it promotes a window entry, and a disk hit enters the main
// segment. The spill and eviction lines that can cause go to ctx's logger.
func (s *Store[V]) Peek(ctx context.Context, key string) (V, bool) {
	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		val := s.hitLocked(ctx, e)
		s.mu.Unlock()
		return val, true
	}
	s.mu.Unlock()
	if val, ok := s.readDisk(ctx, key); ok {
		s.mu.Lock()
		s.putLocked(ctx, key, val, true)
		s.mu.Unlock()
		return val, true
	}
	var zero V
	return zero, false
}

// runBuild admits the build through the gate, checks disk, and runs it.
// Its bool reports a value read back from the spill instead of built.
func (s *Store[V]) runBuild(ctx context.Context, key string, build func(ctx context.Context) (V, error)) (V, bool, error) {
	log := obs.CtxLog(ctx)
	var zero V
	// Disk check happens before admission: reading a spilled plan back is
	// a file read plus Codec.Decode, not preprocessing, and must not be
	// refused under build load. Reads are not gated, so after a restart as
	// many run at once as distinct keys are requested (one per key: the
	// flight coalesces the rest), each holding its file beside the value
	// it decodes until the decode returns. The daemon's plans for the
	// serving benchmark's first class (a 1.98 MB wire form) decode in
	// 2-3 ms and allocate 4 MB each, file included; eight distinct ones
	// read back at once took 17-20 ms on a 2-core host.
	if val, ok := s.readDisk(ctx, key); ok {
		log.LogAttrs(ctx, slog.LevelDebug, "planstore.hit.disk", slog.String("key", keyShort(key)))
		return val, true, nil
	}
	if err := s.acquire(ctx); err != nil {
		return zero, false, err
	}
	defer s.release()
	if err := ctx.Err(); err != nil {
		return zero, false, fmt.Errorf("planstore: canceled before build: %w", err)
	}
	log.LogAttrs(ctx, slog.LevelDebug, "planstore.build.start", slog.String("key", keyShort(key)))
	t0 := time.Now()
	val, err := build(ctx)
	dur := time.Since(t0).Nanoseconds()
	storeBuildNS.Observe(dur)
	s.observeBuild(dur)
	s.builds.Add(1)
	storeBuilds.Inc()
	if err != nil {
		s.buildErrs.Add(1)
		storeBuildErrs.Inc()
		log.LogAttrs(ctx, slog.LevelWarn, "planstore.build.fail",
			slog.String("key", keyShort(key)),
			slog.String("dur", time.Duration(dur).String()),
			slog.String("err", err.Error()))
		return zero, false, err
	}
	log.LogAttrs(ctx, slog.LevelInfo, "planstore.build.done",
		slog.String("key", keyShort(key)),
		slog.String("dur", time.Duration(dur).String()),
		slog.Int64("bytes", s.codec.Size(val)))
	if err := s.writeDisk(key, val); err != nil {
		s.spillErrs.Add(1)
		storeSpillErrs.Inc()
		log.LogAttrs(ctx, slog.LevelWarn, "planstore.spill.fail",
			slog.String("key", keyShort(key)), slog.String("err", err.Error()))
	}
	return val, false, nil
}

// acquire claims a build slot, waiting in the bounded queue if none is
// free. Full queue → ErrBusy; canceled wait → ctx error. A wait is a
// planstore.queue span on the request's tree, carrying the queue depth it
// joined at; a slot taken at once records nothing.
func (s *Store[V]) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		storeActive.Set(int64(len(s.slots)))
		return nil
	default:
	}
	q := s.queued.Add(1)
	if q > int64(s.cfg.MaxQueue) || s.cfg.MaxQueue < 0 {
		s.queued.Add(-1)
		s.rejected.Add(1)
		storeRejected.Inc()
		obs.CtxLog(ctx).LogAttrs(ctx, slog.LevelWarn, "planstore.reject", slog.Int64("queued", q-1))
		return ErrBusy
	}
	storeQueued.Set(s.queued.Load())
	sp := obs.CtxSpan(ctx).Start("planstore.queue", obs.Int("depth", int(q)))
	defer func() {
		sp.End()
		storeQueued.Set(s.queued.Add(-1))
	}()
	select {
	case s.slots <- struct{}{}:
		storeActive.Set(int64(len(s.slots)))
		return nil
	case <-ctx.Done():
		return fmt.Errorf("planstore: canceled while queued: %w", ctx.Err())
	}
}

func (s *Store[V]) release() {
	<-s.slots
	storeActive.Set(int64(len(s.slots)))
}

// hitLocked serves a memory hit on e and returns its value. A window
// entry is on its second request, so it is promoted to the front of main;
// a main entry moves to main's front.
func (s *Store[V]) hitLocked(ctx context.Context, e *list.Element) V {
	ent := e.Value.(*memEntry[V])
	if ent.seg == &s.main {
		s.main.lru.MoveToFront(e)
	} else {
		s.unlinkLocked(e)
		s.linkLocked(ctx, &s.main, ent)
		s.promotions.Add(1)
		storePromotions.Inc()
	}
	s.memHits.Add(1)
	storeMemHits.Inc()
	return ent.val
}

// putLocked inserts a value into memory: into the window when it was just
// built, into main when it is a repeat request — a value read back from
// the spill, or a key already resident (a Peek read it from disk while
// this build ran).
func (s *Store[V]) putLocked(ctx context.Context, key string, val V, repeat bool) {
	if e, ok := s.mem[key]; ok {
		s.unlinkLocked(e)
		repeat = true
	}
	seg := &s.window
	if repeat {
		seg = &s.main
	}
	s.linkLocked(ctx, seg, &memEntry[V]{key: key, val: val, size: s.codec.Size(val)})
}

// linkLocked puts ent at the front of seg and evicts from seg's cold end
// until seg's byte share holds again (the newest value always stays, even
// when it alone exceeds the share). Eviction lines go to ctx's logger,
// tagged with the request that caused them.
func (s *Store[V]) linkLocked(ctx context.Context, seg *segment, ent *memEntry[V]) {
	ent.seg = seg
	s.mem[ent.key] = seg.lru.PushFront(ent)
	seg.bytes += ent.size
	for seg.bytes > seg.max && seg.lru.Len() > 1 {
		old := s.unlinkLocked(seg.lru.Back())
		delete(s.mem, old.key)
		s.evictions.Add(1)
		storeEvictions.Inc()
		obs.CtxLog(ctx).LogAttrs(ctx, slog.LevelDebug, "planstore.evict",
			slog.String("key", keyShort(old.key)), slog.Int64("bytes", old.size),
			slog.String("segment", seg.name))
	}
}

// unlinkLocked removes e from its segment; the caller owns the map entry.
func (s *Store[V]) unlinkLocked(e *list.Element) *memEntry[V] {
	ent := e.Value.(*memEntry[V])
	ent.seg.lru.Remove(e)
	ent.seg.bytes -= ent.size
	return ent
}

// keyShort abbreviates a content hash for log lines: the full 64 hex chars
// are noise at a glance and the prefix stays greppable against X-Plan-Hash.
func keyShort(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// observeBuild folds one build duration into the EWMA (α = 1/4).
func (s *Store[V]) observeBuild(ns int64) {
	for {
		old := s.ewmaBuildNS.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/4
		}
		if s.ewmaBuildNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfter suggests how long a refused caller should wait before
// retrying: the recent build cost times the work queued ahead of it,
// clamped to [1s, 60s] so the header is always sane even before the first
// build lands.
func (s *Store[V]) RetryAfter() time.Duration {
	ewma := time.Duration(s.ewmaBuildNS.Load())
	backlog := 1 + int(s.queued.Load())/s.cfg.MaxActive
	d := ewma * time.Duration(backlog)
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Stats snapshots the store's counters and occupancy.
func (s *Store[V]) Stats() Stats {
	s.mu.Lock()
	winPlans, winBytes := s.window.lru.Len(), s.window.bytes
	plans, bytes := winPlans+s.main.lru.Len(), winBytes+s.main.bytes
	s.mu.Unlock()
	return Stats{
		Builds:       s.builds.Load(),
		BuildErrors:  s.buildErrs.Load(),
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		Coalesced:    s.coalesced.Load(),
		Rejected:     s.rejected.Load(),
		Evictions:    s.evictions.Load(),
		Promotions:   s.promotions.Load(),
		SpillErrors:  s.spillErrs.Load(),
		SpillCorrupt: s.spillCorrupt.Load(),
		Active:       len(s.slots),
		Queued:       int(s.queued.Load()),
		CachedPlans:  plans,
		CachedBytes:  bytes,
		WindowPlans:  winPlans,
		WindowBytes:  winBytes,
	}
}

// diskPath maps a key onto the spill directory; "" when spill is off or
// the key would escape the directory.
func (s *Store[V]) diskPath(key string) string {
	if s.cfg.Dir == "" || key == "" {
		return ""
	}
	for _, r := range key {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '_' || r == '.'
		if !ok || key[0] == '.' {
			return ""
		}
	}
	return filepath.Join(s.cfg.Dir, key+".plan")
}

// A spill file frames its value's encoding with its own header: spillMagic,
// then the CRC-32C of the encoding. The store checks the frame; the
// codec's Decode checks the payload.
const (
	spillMagic     = "HTSP"
	spillHeaderLen = len(spillMagic) + 4
)

var spillTable = crc32.MakeTable(crc32.Castagnoli)

// readDisk reads the file spilled under key and decodes its payload. A
// file whose frame does not check out, or whose payload the codec cannot
// decode, is a miss: it is removed and counted, and the caller rebuilds
// the value. The warning goes to ctx's logger.
func (s *Store[V]) readDisk(ctx context.Context, key string) (V, bool) {
	var zero V
	path := s.diskPath(key)
	if path == "" {
		return zero, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, false
	}
	if len(data) < spillHeaderLen || string(data[:len(spillMagic)]) != spillMagic ||
		binary.LittleEndian.Uint32(data[len(spillMagic):]) != crc32.Checksum(data[spillHeaderLen:], spillTable) {
		s.dropSpill(ctx, key, path, len(data), "checksum")
		return zero, false
	}
	val, err := s.codec.Decode(data[spillHeaderLen:])
	if err != nil {
		s.dropSpill(ctx, key, path, len(data), err.Error())
		return zero, false
	}
	s.diskHits.Add(1)
	storeDiskHits.Inc()
	return val, true
}

// dropSpill removes a corrupt spill file and counts it.
func (s *Store[V]) dropSpill(ctx context.Context, key, path string, size int, reason string) {
	os.Remove(path)
	s.spillCorrupt.Add(1)
	storeSpillCorrupt.Inc()
	obs.CtxLog(ctx).LogAttrs(ctx, slog.LevelWarn, "planstore.spill.corrupt",
		slog.String("key", keyShort(key)), slog.Int("bytes", size), slog.String("reason", reason))
}

// writeDisk spills one value's encoding in its checksum frame: write to a
// temp file, fsync, rename, so readers never see a torn file and a crash
// cannot leave a renamed file whose data never reached the disk. Spill
// failure is not a build failure: the caller counts and logs it, and the
// plan is still served from memory.
func (s *Store[V]) writeDisk(key string, val V) error {
	path := s.diskPath(key)
	if path == "" {
		return nil
	}
	enc, err := s.codec.Encode(val)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.cfg.Dir, "spill-*")
	if err != nil {
		return err
	}
	var hdr [spillHeaderLen]byte
	copy(hdr[:], spillMagic)
	binary.LittleEndian.PutUint32(hdr[len(spillMagic):], crc32.Checksum(enc, spillTable))
	_, err = tmp.Write(hdr[:])
	if err == nil {
		_, err = tmp.Write(enc)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
