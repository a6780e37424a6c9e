package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	// One smoke execution of every registered experiment at a very coarse
	// scale; failures here mean the CLI would crash.
	for _, st := range experiments.Studies {
		st := st
		t.Run(st.Name, func(t *testing.T) {
			res, err := st.Run(context.Background(), newTestEnv())
			if err != nil {
				t.Fatal(err)
			}
			res.Render(io.Discard)
		})
	}
}

// TestUnknownExperimentFailsFirst runs the CLI itself (this test binary,
// re-entered through TestMain) with a typo after a valid name, and before
// it: either way it must exit 2 before printing any study output.
func TestUnknownExperimentFailsFirst(t *testing.T) {
	for _, args := range [][]string{{"fig10", "fgi11"}, {"fgi11", "fig10"}} {
		cmd := exec.Command(os.Args[0], append([]string{"-scale", "1024"}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2 (stderr: %s)", args, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: printed study output before failing:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), `unknown experiment "fgi11"`) {
			t.Fatalf("%v: stderr does not name the typo:\n%s", args, stderr.String())
		}
	}
}

// runMainEnv, set in a child process's environment, makes TestMain run the
// CLI's main instead of the tests.
const runMainEnv = "SPMMSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newTestEnv returns a very coarse environment for smoke tests.
func newTestEnv() *experiments.Env { return experiments.NewEnv(1024, 1) }

// update rewrites the golden output-shape fixtures under testdata/.
var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

// runCLI runs the spmmsim CLI (this test binary, re-entered through
// TestMain) at the test scale and fails the test on a non-zero exit.
func runCLI(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-scale", "1024"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("spmmsim %v: %v\n%s", args, err, stderr.String())
	}
}

// checkGolden compares got against testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s changed shape (rerun with -update and review the diff):\n%s", path, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, ln := range w {
		if !slices.Contains(g, ln) {
			fmt.Fprintf(&b, "- %s\n", ln)
		}
	}
	for _, ln := range g {
		if !slices.Contains(w, ln) {
			fmt.Fprintf(&b, "+ %s\n", ln)
		}
	}
	return b.String()
}

// chromeEvent is the subset of the Chrome trace-event schema the export
// tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestTimelineChromeSchema runs `spmmsim -timeline out.json fig10` and
// validates the export against the Chrome trace-event schema Perfetto
// consumes: valid JSON, only known phase codes, the two clock processes
// named, at least one simulated worker slice, and complete ("X") slices
// that are nested or disjoint on every (pid, tid) row — Perfetto draws
// overlapping siblings on one row as garbage. The export's shape is pinned
// in testdata/fig10.timeline.golden.
func TestTimelineChromeSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	runCLI(t, "-timeline", path, "fig10")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("timeline export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("timeline export has no events")
	}
	processes := map[string]bool{}
	workerSlices := 0
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X", "i", "C":
			if ev.Pid != 1 && ev.Pid != 2 {
				t.Fatalf("event %q has pid %d, want 1 or 2", ev.Name, ev.Pid)
			}
		case "M":
			if ev.Name == "process_name" {
				processes[ev.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("unknown trace phase %q", ev.Ph)
		}
		if ev.Ph == "X" && ev.Pid == 2 {
			workerSlices++
		}
	}
	if !processes["wall clock"] || !processes["simulated time"] {
		t.Fatalf("missing process metadata: %v", processes)
	}
	if workerSlices == 0 {
		t.Fatal("no simulated worker slices in the export")
	}
	checkNesting(t, out.TraceEvents)
	checkGolden(t, "fig10.timeline.golden", timelineShape(out.TraceEvents))
}

// checkNesting fails when two "X" slices on one (pid, tid) row overlap
// without one containing the other. Times are compared in whole
// nanoseconds, the export's resolution.
func checkNesting(t *testing.T, evs []chromeEvent) {
	t.Helper()
	type row struct{ pid, tid int }
	type span struct{ start, end int64 }
	rows := map[row][]span{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			s := int64(math.Round(ev.TS * 1e3))
			rows[row{ev.Pid, ev.Tid}] = append(rows[row{ev.Pid, ev.Tid}], span{s, s + int64(math.Round(ev.Dur*1e3))})
		}
	}
	for r, spans := range rows {
		slices.SortFunc(spans, func(a, b span) int {
			if a.start != b.start {
				return cmp.Compare(a.start, b.start)
			}
			return cmp.Compare(b.end, a.end)
		})
		var open []span
		for _, s := range spans {
			for len(open) > 0 && open[len(open)-1].end <= s.start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && s.end > open[len(open)-1].end {
				t.Fatalf("row %v: slice [%d,%d) overlaps [%d,%d) without nesting",
					r, s.start, s.end, open[len(open)-1].start, open[len(open)-1].end)
			}
			open = append(open, s)
		}
	}
}

// timelineShape normalizes an export to what stays fixed between runs:
// for wall-clock rows, which (row, phase, name) triples occur; for
// simulated rows, event counts per pool and phase (worker rows folded
// into their pool, unit numbers dropped). Timestamps, durations and lane
// numbers are not part of the shape, and the worker pool's own rows
// (par/...) are left out because their count follows GOMAXPROCS.
func timelineShape(evs []chromeEvent) []byte {
	type row struct{ pid, tid int }
	threads := map[row]string{}
	for _, ev := range evs {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threads[row{ev.Pid, ev.Tid}] = ev.Args["name"].(string)
		}
	}
	lane := regexp.MustCompile(` \(\d+\)$`)
	worker := regexp.MustCompile(`/w\d+$`)
	counts := map[string]int{}
	for _, ev := range evs {
		thread := lane.ReplaceAllString(threads[row{ev.Pid, ev.Tid}], "")
		switch {
		case ev.Ph == "M" || strings.HasPrefix(thread, "par/"):
		case ev.Pid == 1:
			counts[fmt.Sprintf("wall %s | %s %s", thread, ev.Ph, ev.Name)] = 0
		default:
			counts[fmt.Sprintf("sim %s | %s", worker.ReplaceAllString(thread, ""), ev.Ph)]++
		}
	}
	lines := make([]string, 0, len(counts))
	for k, n := range counts {
		if n > 0 {
			k += " ×" + strconv.Itoa(n)
		}
		lines = append(lines, k)
	}
	slices.Sort(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// TestTraceManifestGolden pins the shape of the `-trace` run manifest:
// name, config, the span tree (names, attributes and nesting) and the
// registered counter names. Durations, creation time, counter values and
// output hashes vary between runs and are normalized; histograms are
// dropped because which of them record anything depends on scheduling.
// Children below the phases are sorted by name, since the parallel
// fan-out creates them in a varying order.
func TestTraceManifestGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	runCLI(t, "-trace", path, "fig10")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	m.Created = "<created>"
	for k := range m.Counters {
		m.Counters[k] = 0
	}
	m.Histograms = nil
	for i := range m.Outputs {
		m.Outputs[i].SHA256 = "<sha256>"
	}
	var norm func(r *obs.SpanRecord, depth int)
	norm = func(r *obs.SpanRecord, depth int) {
		r.DurationNS = 0
		for _, c := range r.Children {
			norm(c, depth+1)
		}
		if depth > 0 {
			slices.SortStableFunc(r.Children, func(a, b *obs.SpanRecord) int { return strings.Compare(a.Name, b.Name) })
		}
	}
	norm(m.Spans, 0)
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig10.manifest.golden", append(got, '\n'))
}
