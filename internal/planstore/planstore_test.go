package planstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// bytesCodec stores values as their own encoding, charging their length.
var bytesCodec = Codec[[]byte]{
	Size:   func(v []byte) int64 { return int64(len(v)) },
	Encode: func(v []byte) ([]byte, error) { return v, nil },
	Decode: func(b []byte) ([]byte, error) { return b, nil },
}

// newStore builds a test store of byte values with a tiny footprint.
func newStore(t *testing.T, cfg Config) *Store[[]byte] {
	t.Helper()
	s, err := New(cfg, bytesCodec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func constBuild(val []byte) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) { return val, nil }
}

func TestGetBuildsOnceThenHits(t *testing.T) {
	s := newStore(t, Config{})
	calls := 0
	build := func(context.Context) ([]byte, error) {
		calls++
		return []byte("plan"), nil
	}
	for i := 0; i < 3; i++ {
		got, err := s.Get(context.Background(), "k", build)
		if err != nil || string(got) != "plan" {
			t.Fatalf("get %d: %q, %v", i, got, err)
		}
	}
	if calls != 1 {
		t.Fatalf("build ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Builds != 1 || st.MemHits != 2 {
		t.Fatalf("stats %+v: want 1 build, 2 mem hits", st)
	}
}

// TestSingleflightCoalesces pins the daemon's batching guarantee: N
// concurrent Gets for one key run the build exactly once, and followers
// join the flight without consuming gate capacity (the gate here has one
// slot and no queue, so a follower needing a slot would be refused).
func TestSingleflightCoalesces(t *testing.T) {
	s := newStore(t, Config{MaxActive: 1, MaxQueue: -1})
	const followers = 8
	entered := make(chan struct{})
	release := make(chan struct{})
	var builds int
	build := func(context.Context) ([]byte, error) {
		builds++
		close(entered)
		<-release
		return []byte("shared"), nil
	}

	errs := make([]error, followers+1)
	vals := make([][]byte, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], errs[0] = s.Get(context.Background(), "k", build)
	}()
	<-entered // leader is inside the build; everyone else must coalesce

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = s.Get(context.Background(), "k", build)
		}(i)
	}
	// Wait until every follower has joined the flight, then let the
	// build finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil || string(vals[i]) != "shared" {
			t.Fatalf("caller %d: %q, %v", i, vals[i], err)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if st := s.Stats(); st.Builds != 1 || st.Coalesced != followers {
		t.Fatalf("stats %+v", st)
	}
}

// TestBackpressureRefusesWhenFull pins the overload contract: with one
// active slot and a one-deep queue, the third concurrent distinct build is
// refused with ErrBusy instead of waiting unboundedly.
func TestBackpressureRefusesWhenFull(t *testing.T) {
	s := newStore(t, Config{MaxActive: 1, MaxQueue: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := func(context.Context) ([]byte, error) {
		close(entered)
		<-release
		return []byte("a"), nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Get(context.Background(), "a", slow); err != nil {
			t.Errorf("active build: %v", err)
		}
	}()
	<-entered

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Get(context.Background(), "b", constBuild([]byte("b"))); err != nil {
			t.Errorf("queued build: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second build never queued: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Get(context.Background(), "c", constBuild([]byte("c"))); !errors.Is(err, ErrBusy) {
		t.Fatalf("third build: err = %v, want ErrBusy", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v: want 1 rejection", st)
	}
	close(release)
	wg.Wait()
}

// TestNoQueueMode: MaxQueue < 0 refuses as soon as the slots are taken.
func TestNoQueueMode(t *testing.T) {
	s := newStore(t, Config{MaxActive: 1, MaxQueue: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Get(context.Background(), "a", func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			return []byte("a"), nil
		})
	}()
	<-entered
	if _, err := s.Get(context.Background(), "b", constBuild(nil)); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	close(release)
	wg.Wait()
}

// TestDefaultSlotsPerCore: the zero Config runs one build per core. With
// GOMAXPROCS 3, three distinct builds held open all run at once, and a
// fourth waits in the queue.
func TestDefaultSlotsPerCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s := newStore(t, Config{})
	release := make(chan struct{})
	held := func(context.Context) ([]byte, error) {
		<-release
		return []byte("v"), nil
	}
	var wg sync.WaitGroup
	get := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Get(context.Background(), key, held); err != nil {
				t.Errorf("build %s: %v", key, err)
			}
		}()
	}
	waitFor := func(what string, ok func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok(s.Stats()) {
			if time.Now().After(deadline) {
				t.Errorf("%s: %+v", what, s.Stats())
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, key := range []string{"a", "b", "c"} {
		get(key)
	}
	waitFor("three builds never ran at once", func(st Stats) bool { return st.Active == 3 })
	get("d")
	waitFor("fourth build never queued", func(st Stats) bool { return st.Queued == 1 })
	if st := s.Stats(); st.Active != 3 || st.Queued != 1 {
		t.Errorf("stats %+v: want 3 active, 1 queued", st)
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.Builds != 4 {
		t.Fatalf("stats %+v: want 4 builds", st)
	}
}

// TestCanceledWhileQueued: a builder waiting for a slot honors its
// context instead of holding the queue position forever.
func TestCanceledWhileQueued(t *testing.T) {
	s := newStore(t, Config{MaxActive: 1, MaxQueue: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Get(context.Background(), "a", func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			return []byte("a"), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Get(ctx, "b", constBuild(nil))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("build never queued: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.Queued != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
}

// TestFollowerTimeout: a follower whose context expires stops waiting; the
// leader's build continues and lands in the cache.
func TestFollowerTimeout(t *testing.T) {
	s := newStore(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Get(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			return []byte("late"), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Get(ctx, "k", constBuild(nil)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	close(release)
	wg.Wait()
	if got, ok := s.Peek(context.Background(), "k"); !ok || string(got) != "late" {
		t.Fatalf("leader's build not cached: %q, %v", got, ok)
	}
}

// TestBuildErrorsNotCached: a failed build surfaces its error and the next
// Get retries — transient daemon failures must not poison a hash forever.
func TestBuildErrorsNotCached(t *testing.T) {
	s := newStore(t, Config{})
	boom := errors.New("boom")
	calls := 0
	if _, err := s.Get(context.Background(), "k", func(context.Context) ([]byte, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, err := s.Get(context.Background(), "k", func(context.Context) ([]byte, error) {
		calls++
		return []byte("ok"), nil
	})
	if err != nil || string(got) != "ok" {
		t.Fatalf("retry: %q, %v", got, err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2", calls)
	}
	if st := s.Stats(); st.BuildErrors != 1 || st.Builds != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, Config{Dir: dir})
	want := bytes.Repeat([]byte("p"), 4096)
	if _, err := s.Get(context.Background(), "abc123", constBuild(want)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "abc123.plan")); err != nil {
		t.Fatalf("plan not spilled: %v", err)
	}

	// A fresh store over the same directory serves the plan from disk
	// without building.
	s2 := newStore(t, Config{Dir: dir})
	got, err := s2.Get(context.Background(), "abc123", func(context.Context) ([]byte, error) {
		t.Fatal("build ran despite disk spill")
		return nil, nil
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("disk read: %d bytes, %v", len(got), err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("stats %+v", st)
	}

	// Peek promotes the disk copy without building, on yet another store.
	s3 := newStore(t, Config{Dir: dir})
	if got, ok := s3.Peek(context.Background(), "abc123"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("peek: %d bytes, %v", len(got), ok)
	}

	// A disk hit is a repeat request by definition: through Get and
	// through Peek alike it enters main, with no promotion counted.
	for _, store := range []*Store[[]byte]{s2, s3} {
		if got, st := segmentOf(store, "abc123"), store.Stats(); got != "main" || st.Promotions != 0 || st.WindowPlans != 0 {
			t.Errorf("disk hit in %q, stats %+v; want main and no promotion", got, st)
		}
	}
}

// TestCorruptSpillIsRebuilt flips one byte of a spill file, in the frame
// header and in the value: the next Get on a fresh store counts a miss,
// removes the file, rebuilds the value instead of serving the bad bytes,
// and spills a good copy again.
func TestCorruptSpillIsRebuilt(t *testing.T) {
	want := bytes.Repeat([]byte("plan"), 1024)
	for _, off := range []int{len(spillMagic) + 1, spillHeaderLen + 100} {
		dir := t.TempDir()
		if _, err := newStore(t, Config{Dir: dir}).Get(context.Background(), "abc123", constBuild(want)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "abc123.plan")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		before := storeSpillCorrupt.Load()
		s := newStore(t, Config{Dir: dir})
		got, err := s.Get(context.Background(), "abc123", constBuild(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("offset %d: Get = %d bytes, %v; want the rebuilt value", off, len(got), err)
		}
		if st := s.Stats(); st.Builds != 1 || st.DiskHits != 0 || st.SpillCorrupt != 1 {
			t.Fatalf("offset %d: stats %+v, want 1 build, 0 disk hits, 1 corrupt spill", off, st)
		}
		if d := storeSpillCorrupt.Load() - before; d != 1 {
			t.Fatalf("offset %d: planstore.spill.corrupt rose by %d, want 1", off, d)
		}
		if got, ok := newStore(t, Config{Dir: dir}).Peek(context.Background(), "abc123"); !ok || !bytes.Equal(got, want) {
			t.Fatalf("offset %d: the rebuild did not spill a good copy", off)
		}
	}
}

// TestUndecodableSpillIsRebuilt spills a payload whose frame checks out but
// which the codec refuses to decode: the next Get on a fresh store counts
// it corrupt, removes the file, rebuilds the value and spills a good copy.
func TestUndecodableSpillIsRebuilt(t *testing.T) {
	strict := bytesCodec
	strict.Decode = func(b []byte) ([]byte, error) {
		if bytes.HasPrefix(b, []byte("bad")) {
			return nil, errors.New("undecodable")
		}
		return b, nil
	}
	dir := t.TempDir()
	newStrict := func() *Store[[]byte] {
		s, err := New(Config{Dir: dir}, strict)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, err := newStrict().Get(context.Background(), "abc123", constBuild([]byte("bad plan"))); err != nil {
		t.Fatal(err)
	}
	before := storeSpillCorrupt.Load()
	s := newStrict()
	got, err := s.Get(context.Background(), "abc123", constBuild([]byte("good plan")))
	if err != nil || string(got) != "good plan" {
		t.Fatalf("Get = %q, %v; want the rebuilt value", got, err)
	}
	if st := s.Stats(); st.Builds != 1 || st.DiskHits != 0 || st.SpillCorrupt != 1 {
		t.Fatalf("stats %+v, want 1 build, 0 disk hits, 1 corrupt spill", st)
	}
	if d := storeSpillCorrupt.Load() - before; d != 1 {
		t.Fatalf("planstore.spill.corrupt rose by %d, want 1", d)
	}
	if got, ok := newStrict().Peek(context.Background(), "abc123"); !ok || string(got) != "good plan" {
		t.Fatalf("the rebuild did not spill a good copy: %q, %v", got, ok)
	}
}

// TestSpillFailureIsVisible replaces the spill directory with a regular
// file after the store is built, so every spill fails: the plan is still
// served, and the failure is counted and logged with the key.
func TestSpillFailureIsVisible(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s := newStore(t, Config{Dir: dir})
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	ctx := obs.WithLogger(context.Background(), obs.NewLogger(&logBuf, obs.LogOptions{}))
	before := storeSpillErrs.Load()
	want := []byte("plan")
	got, err := s.Get(ctx, "abc123", constBuild(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want the built plan despite the failed spill", got, err)
	}
	if st := s.Stats(); st.SpillErrors != 1 {
		t.Fatalf("Stats().SpillErrors = %d, want 1", st.SpillErrors)
	}
	if d := storeSpillErrs.Load() - before; d != 1 {
		t.Fatalf("planstore.spill.errors rose by %d, want 1", d)
	}
	if line := logBuf.String(); !strings.Contains(line, "planstore.spill.fail") || !strings.Contains(line, "abc123") {
		t.Fatalf("no spill warning with the key in the log:\n%s", line)
	}
}

// TestMemHitLoggerAllocs pins the logging cost of a memory hit, the path
// every cached /gnn request takes: with the daemon's info-level logger on
// ctx, the debug planstore.hit line is skipped without allocating, so the
// hit allocates no more than one with no logger at all, which is nothing.
// A ctx without a logger still logs to the discard logger, so a call that
// boxes its attrs (Debug(msg, slog.String(…))) allocates on both sides;
// the zero pins that.
func TestMemHitLoggerAllocs(t *testing.T) {
	s := newStore(t, Config{})
	build := constBuild([]byte("plan"))
	if _, err := s.Get(context.Background(), "hit", build); err != nil {
		t.Fatal(err)
	}
	allocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := s.Get(ctx, "hit", build); err != nil {
				t.Fatal(err)
			}
		})
	}
	log := obs.NewLogger(io.Discard, obs.LogOptions{Level: slog.LevelInfo, Format: "json", SampleRate: 1000})
	log = log.With(slog.String("req", "r1"), slog.String("route", "gnn"))
	bare := allocs(context.Background())
	logged := allocs(obs.WithLogger(context.Background(), log))
	if logged > bare || bare != 0 {
		t.Fatalf("memory hit: %v allocs with an info-level logger, %v with none; want 0", logged, bare)
	}
}

// TestDiskPathRejectsHostileKeys: keys that could escape the spill
// directory never touch the filesystem.
func TestDiskPathRejectsHostileKeys(t *testing.T) {
	s := newStore(t, Config{Dir: t.TempDir()})
	for _, key := range []string{"../etc/passwd", "a/b", "", ".hidden", "a b"} {
		if p := s.diskPath(key); p != "" {
			t.Errorf("key %q mapped to %q, want rejection", key, p)
		}
	}
	if p := s.diskPath("sha-256_OK.v1"); p == "" {
		t.Error("benign key rejected")
	}
}

// segmentOf names the segment holding key ("" when it is not in memory)
// without touching recency, as a Get or Peek would.
func segmentOf(s *Store[[]byte], key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.mem[key]; ok {
		return e.Value.(*memEntry[[]byte]).seg.name
	}
	return ""
}

// checkSegments walks both segments and requires the store's bookkeeping
// to agree with them: every map entry sits in the list of the segment it
// names, each segment's byte count is the sum of its values, and each
// segment holds its share of the budget or exactly one entry (the newest
// always stays).
func checkSegments(t *testing.T, s *Store[[]byte]) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := 0
	for _, seg := range []*segment{&s.window, &s.main} {
		var bytes int64
		for e := seg.lru.Front(); e != nil; e = e.Next() {
			ent := e.Value.(*memEntry[[]byte])
			if ent.seg != seg || s.mem[ent.key] != e {
				t.Fatalf("%s: entry %q is out of place", seg.name, ent.key)
			}
			bytes += int64(len(ent.val))
			seen++
		}
		if bytes != seg.bytes {
			t.Fatalf("%s: counts %d bytes, holds %d", seg.name, seg.bytes, bytes)
		}
		if seg.bytes > seg.max && seg.lru.Len() > 1 {
			t.Fatalf("%s: %d entries, %d bytes over its %d-byte share", seg.name, seg.lru.Len(), seg.bytes, seg.max)
		}
	}
	if seen != len(s.mem) {
		t.Fatalf("segments hold %d entries, the map %d", seen, len(s.mem))
	}
}

// TestLRUEvicts covers eviction in both segments: with a 16-byte budget
// the window's share is 2 bytes, so it keeps only the newest 4-byte value,
// and main's 14 bytes keep the three most recently promoted values.
func TestLRUEvicts(t *testing.T) {
	s := newStore(t, Config{MaxBytes: 16})
	ctx := context.Background()
	get := func(key string) {
		t.Helper()
		if _, err := s.Get(ctx, key, constBuild([]byte("1234"))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		get(key) // built into the window
		get(key) // second request: promoted to main
	}
	get("k4")
	get("k5")
	checkSegments(t, s)
	want := map[string]string{"k0": "", "k1": "main", "k2": "main", "k3": "main", "k4": "", "k5": "window"}
	for key, seg := range want {
		if got := segmentOf(s, key); got != seg {
			t.Errorf("%s in %q, want %q", key, got, seg)
		}
	}
	st := s.Stats()
	if st.CachedBytes > 16 || st.CachedPlans != 4 || st.WindowPlans != 1 || st.WindowBytes != 4 {
		t.Fatalf("stats %+v: want 4 plans in 16 bytes, 1 of them in the window", st)
	}
	// k0 left main's cold end, k4 the window's.
	if st.Evictions != 2 || st.Promotions != 4 || st.Builds != 6 {
		t.Fatalf("stats %+v: want 2 evictions, 4 promotions, 6 builds", st)
	}
}

// TestOneOffMixStaysInWindow drives the plan-build shape: every key is
// new, and the values add up to ten times the budget. Nothing is requested
// twice, so main stays empty and what is resident never exceeds the
// window's share, except when the newest value alone is larger.
func TestOneOffMixStaysInWindow(t *testing.T) {
	const budget = 8 << 10
	s := newStore(t, Config{MaxBytes: budget})
	rng := rand.New(rand.NewSource(1))
	var total int
	for i := 0; total < 10*budget; i++ {
		// Sizes span the window's 1 KiB share, so some values exceed it.
		val := make([]byte, 50+rng.Intn(1500))
		total += len(val)
		if _, err := s.Get(context.Background(), fmt.Sprintf("once%d", i), constBuild(val)); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.CachedPlans != st.WindowPlans || st.CachedBytes != st.WindowBytes {
			t.Fatalf("request %d: main holds values nobody asked for twice: %+v", i, st)
		}
		if st.CachedBytes > budget/windowShare && st.CachedPlans != 1 {
			t.Fatalf("request %d: %d plans in %d bytes, over the %d-byte window", i, st.CachedPlans, st.CachedBytes, budget/windowShare)
		}
	}
	checkSegments(t, s)
	if st := s.Stats(); st.MemHits != 0 || st.Promotions != 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: want no hits, no promotions, some evictions", st)
	}
}

// TestRepeatedKeyMixSurvivesFlood drives the reuse shape beside one-off
// traffic: hot keys requested again are promoted to main, and they keep
// hitting while one-offs worth ten budgets pass through the window. A
// round (four 100-byte hot values, two 200-byte one-offs) fits the 1 KiB
// window, so a hot key is still there when its second request comes.
func TestRepeatedKeyMixSurvivesFlood(t *testing.T) {
	const budget = 8 << 10
	s := newStore(t, Config{MaxBytes: budget})
	ctx := context.Background()
	hot := []string{"hot0", "hot1", "hot2", "hot3"}
	builds := map[string]int{}
	hotBuild := func(key string) func(context.Context) ([]byte, error) {
		return func(context.Context) ([]byte, error) {
			builds[key]++
			return bytes.Repeat([]byte(key), 25), nil
		}
	}
	oneOff := 0
	flood := func(n int) {
		for i := 0; i < n; i++ {
			oneOff++
			if _, err := s.Get(ctx, fmt.Sprintf("once%d", oneOff), constBuild(make([]byte, 200))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 100; round++ {
		for _, key := range hot {
			if _, err := s.Get(ctx, key, hotBuild(key)); err != nil {
				t.Fatal(err)
			}
		}
		flood(2)
	}
	// One last flood of ten budgets with no hot request in between.
	flood(10 * budget / 200)
	for _, key := range hot {
		if got := segmentOf(s, key); got != "main" {
			t.Fatalf("%s in %q after the flood, want main", key, got)
		}
		if _, err := s.Get(ctx, key, hotBuild(key)); err != nil {
			t.Fatal(err)
		}
		if builds[key] != 1 {
			t.Fatalf("%s built %d times, want 1", key, builds[key])
		}
	}
	checkSegments(t, s)
	st := s.Stats()
	if st.Promotions != int64(len(hot)) || st.MemHits != int64(100*len(hot)) {
		t.Fatalf("stats %+v: want %d promotions and %d hits", st, len(hot), 100*len(hot))
	}
	if st.WindowBytes > budget/windowShare {
		t.Fatalf("window holds %d bytes, over its %d-byte share", st.WindowBytes, budget/windowShare)
	}
}

// TestPeekPromotes: GET /plan/{hash} is a request too, so a Peek hit on a
// window entry promotes it, and it outlives a window's worth of one-offs.
func TestPeekPromotes(t *testing.T) {
	s := newStore(t, Config{MaxBytes: 800})
	ctx := context.Background()
	if _, err := s.Get(ctx, "k", constBuild([]byte("plan"))); err != nil {
		t.Fatal(err)
	}
	if got := segmentOf(s, "k"); got != "window" {
		t.Fatalf("new value in %q, want window", got)
	}
	if _, ok := s.Peek(ctx, "k"); !ok {
		t.Fatal("Peek missed a resident value")
	}
	if got, st := segmentOf(s, "k"), s.Stats(); got != "main" || st.Promotions != 1 || st.MemHits != 1 {
		t.Fatalf("after Peek: k in %q, stats %+v; want main, 1 promotion, 1 hit", got, st)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Get(ctx, fmt.Sprintf("once%d", i), constBuild(make([]byte, 50))); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Peek(ctx, "k"); !ok || string(got) != "plan" {
		t.Fatalf("promoted value lost to one-offs: %q, %v", got, ok)
	}
}

// TestPromoteEvictConcurrent runs promotions and evictions in both
// segments from several goroutines at once (meant for -race): hot keys hit
// through Get and Peek while one-offs flood the window, and the segments'
// bookkeeping must agree with their contents afterwards.
func TestPromoteEvictConcurrent(t *testing.T) {
	s := newStore(t, Config{MaxBytes: 4 << 10, MaxQueue: 1 << 10})
	ctx := context.Background()
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("hot%d", rng.Intn(12))
				if rng.Intn(2) == 0 {
					key = fmt.Sprintf("once%d-%d", w, i)
				}
				if rng.Intn(4) == 0 {
					s.Peek(ctx, key)
					continue
				}
				if _, err := s.Get(ctx, key, constBuild(make([]byte, 64+rng.Intn(256)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkSegments(t, s)
	if st := s.Stats(); st.Promotions == 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: the mix never promoted or never evicted", st)
	}
}

func TestRetryAfterBounds(t *testing.T) {
	s := newStore(t, Config{})
	if got := s.RetryAfter(); got != time.Second {
		t.Fatalf("cold RetryAfter = %v, want 1s", got)
	}
	s.observeBuild(int64(5 * time.Second))
	if got := s.RetryAfter(); got < time.Second || got > time.Minute {
		t.Fatalf("RetryAfter = %v out of [1s, 60s]", got)
	}
	s.observeBuild(int64(10 * time.Minute))
	if got := s.RetryAfter(); got != time.Minute {
		t.Fatalf("RetryAfter = %v, want 60s clamp", got)
	}
}
