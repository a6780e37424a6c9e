package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newTestCLI registers a CLI on a fresh flag set, parses args, and sends
// its stdout and stderr to the returned buffer.
func newTestCLI(t *testing.T, tracing bool, args ...string) (*CLI, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := NewCLI(fs, "t", tracing)
	var out bytes.Buffer
	c.stdout, c.stderr = &out, &out
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetDeepTiming(false) })
	return c, &out
}

// TestCLIConsumerRule pins which consumers exist for each combination of
// the consumer flags: any of them turns on deep timing and (tracing CLIs
// only) the tracer; -timeline and -debug-addr add a timeline.
func TestCLIConsumerRule(t *testing.T) {
	dir := t.TempDir()
	type flags struct{ trace, timeline, debug bool }
	var cases []flags
	for i := 0; i < 8; i++ {
		cases = append(cases, flags{i&1 != 0, i&2 != 0, i&4 != 0})
	}
	for _, tracing := range []bool{true, false} {
		for _, f := range cases {
			if !tracing && (f.trace || f.timeline) {
				continue // a non-tracing CLI has no -trace or -timeline
			}
			var args []string
			if f.trace {
				args = append(args, "-trace", filepath.Join(dir, "m.json"))
			}
			if f.timeline {
				args = append(args, "-timeline", filepath.Join(dir, "tl.json"))
			}
			if f.debug {
				args = append(args, "-debug-addr", "127.0.0.1:0")
			}
			c, out := newTestCLI(t, tracing, args...)
			c.Start()
			observed := f.trace || f.timeline || f.debug
			if DeepTiming() != observed {
				t.Errorf("tracing=%v %v: DeepTiming() = %v", tracing, args, DeepTiming())
			}
			if got := c.Tracer != nil; got != (tracing && observed) {
				t.Errorf("tracing=%v %v: tracer built = %v", tracing, args, got)
			}
			if got := c.Timeline != nil; got != (tracing && (f.timeline || f.debug)) {
				t.Errorf("tracing=%v %v: timeline built = %v", tracing, args, got)
			}
			c.Finish()
			if got := strings.Contains(out.String(), "t.debug.listen"); got != f.debug {
				t.Errorf("tracing=%v %v: debug.listen logged = %v:\n%s", tracing, args, got, out)
			}
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	NewCLI(fs, "t", false)
	if fs.Lookup("trace") != nil || fs.Lookup("timeline") != nil {
		t.Error("a non-tracing CLI registered -trace or -timeline")
	}
}

// TestCLIStartFinishWritesArtifacts runs the whole lifecycle with file
// outputs: the manifest must read back with its config and spans, the
// timeline must be Chrome trace JSON, and both profiles must be written.
func TestCLIStartFinishWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "runs", "m.json")
	timeline := filepath.Join(dir, "tl.json")
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	c, out := newTestCLI(t, true, "-log", "warn:json", "-trace", manifest, "-timeline", timeline,
		"-cpuprofile", cpu, "-memprofile", mem)
	c.Start()
	c.Tracer.SetConfig("scale", "512")
	c.Tracer.Phase("read").Start("m.mtx").End()
	c.Finish()

	for _, want := range []string{
		"wrote run manifest to " + manifest + "\n",
		"wrote timeline to " + timeline + " (load in ui.perfetto.dev)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "t" || m.Config["scale"] != "512" {
		t.Errorf("manifest name/config = %q %v", m.Name, m.Config)
	}
	if phases := m.Phases(); len(phases) != 1 || phases[0] != "read" {
		t.Errorf("manifest phases = %v, want [read]", phases)
	}
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("timeline is not JSON: %v", err)
	}
	found := false
	for _, ev := range chrome.TraceEvents {
		found = found || (ev.Ph == "X" && ev.Name == "read")
	}
	if !found {
		t.Errorf("timeline lacks the read span:\n%s", data)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", path, err)
		}
	}
}

// TestCLISummaries covers the "-" paths: the manifest and timeline
// summaries go to stdout and no "wrote ..." line is printed.
func TestCLISummaries(t *testing.T) {
	c, out := newTestCLI(t, true, "-trace", "-", "-timeline", "-")
	c.Start()
	c.Tracer.Phase("read").Start("m.mtx").End()
	c.Finish()
	if strings.Contains(out.String(), "wrote ") || !strings.Contains(out.String(), "read") {
		t.Errorf("summary output:\n%s", out)
	}
}

// TestCLIFlushOnce pins the guard between Finish and Fail: a failed
// manifest write does not stop the timeline, and a second flush — the
// Fail that follows a failed Finish — retries neither.
func TestCLIFlushOnce(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	timeline := filepath.Join(dir, "tl.json")
	c, out := newTestCLI(t, true, "-trace", filepath.Join(blocker, "m.json"), "-timeline", timeline)
	c.Start()
	if err := c.flush(); err == nil {
		t.Fatal("manifest under a regular file did not error")
	}
	if _, err := os.Stat(timeline); err != nil {
		t.Errorf("timeline not written after the manifest failed: %v", err)
	}
	out.Reset()
	if err := c.flush(); err != nil || out.Len() != 0 {
		t.Errorf("second flush = %v, output %q; want nothing retried", err, out)
	}
}

// TestCLIStartErrors covers the set-up failures Start sends to Fail: an
// unwritable CPU profile and a debug address already in use.
func TestCLIStartErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")
	c, _ := newTestCLI(t, true, "-cpuprofile", bad)
	c.Logger = NewLogger(c.stderr, LogOptions{})
	if err := c.start(); err == nil {
		t.Error("unwritable CPU profile path did not error")
	}
	if err := c.stopProfiles(); err != nil {
		t.Errorf("stop after failed start: %v", err)
	}

	addr, stop, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, _ = newTestCLI(t, true, "-debug-addr", addr)
	c.Logger = NewLogger(c.stderr, LogOptions{})
	if err := c.start(); err == nil {
		t.Error("debug address in use did not error")
	}
	if err := c.stopProfiles(); err != nil {
		t.Errorf("stop after failed start: %v", err)
	}
}

func TestStartProfilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "heap.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to serialize.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestStartProfilesEmptyPathsAreNoOps(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesBadCPUPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")
	stop, err := startProfiles(bad, "")
	if err == nil {
		t.Fatal("unwritable CPU profile path did not error")
	}
	if stop == nil {
		t.Fatal("stop must be non-nil even on error")
	}
	if err := stop(); err != nil {
		t.Fatalf("stop after failed start errored: %v", err)
	}
}

func TestStartProfilesBadMemPath(t *testing.T) {
	// The heap profile is written at stop time, so a bad path surfaces there.
	bad := filepath.Join(t.TempDir(), "missing-dir", "heap.pprof")
	stop, err := startProfiles("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("unwritable heap profile path did not error at stop")
	}
}
