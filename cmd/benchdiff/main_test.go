package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: some cpu
BenchmarkEngine-8   	    1447	    811501 ns/op	     132 B/op	      12 allocs/op
BenchmarkEngine-8   	    1445	    813499 ns/op	     132 B/op	      12 allocs/op
BenchmarkWaterfill-8	 4060328	       294.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkExperimentsFanout/parallel-8	       2	 531170971 ns/op
PASS
ok  	repro/internal/sim	12.3s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Host.CPU != "some cpu" || f.Host.GOMAXPROCS != 8 {
		t.Fatalf("host = %+v, want cpu %q and GOMAXPROCS 8", *f.Host, "some cpu")
	}
	bs := f.Benchmarks
	if len(bs) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(bs), bs)
	}
	eng, ok := bs["BenchmarkEngine"]
	if !ok {
		t.Fatalf("missing BenchmarkEngine (procs suffix not stripped?): %v", bs)
	}
	if eng.NsPerOp != 812500 { // average of the two runs
		t.Fatalf("BenchmarkEngine ns/op = %v, want averaged 812500", eng.NsPerOp)
	}
	if eng.AllocsPerOp != 12 || eng.BytesPerOp != 132 {
		t.Fatalf("BenchmarkEngine mem metrics = %+v", eng)
	}
	wf := bs["BenchmarkWaterfill"]
	if wf.NsPerOp != 294.9 || wf.AllocsPerOp != 0 {
		t.Fatalf("BenchmarkWaterfill = %+v", wf)
	}
	fan, ok := bs["BenchmarkExperimentsFanout/parallel"]
	if !ok || fan.NsPerOp != 531170971 {
		t.Fatalf("sub-benchmark without -benchmem = %+v ok=%v", fan, ok)
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkEngine-8":           {"BenchmarkEngine", 8},
		"BenchmarkEngine":             {"BenchmarkEngine", 1},
		"BenchmarkFanout/parallel-16": {"BenchmarkFanout/parallel", 16},
		"BenchmarkKernels/cache-on-8": {"BenchmarkKernels/cache-on", 8},
		"BenchmarkKernels/cache-on":   {"BenchmarkKernels/cache-on", 1},
		"BenchmarkAblation/512-4":     {"BenchmarkAblation/512", 4},
	} {
		if got, procs := trimProcs(in); got != want.name || procs != want.procs {
			t.Errorf("trimProcs(%q) = %q, %d, want %q, %d", in, got, procs, want.name, want.procs)
		}
	}
}

func TestCompare(t *testing.T) {
	old := map[string]Metrics{
		"A": {NsPerOp: 1000, AllocsPerOp: 5},
		"B": {NsPerOp: 1000, AllocsPerOp: 0},
		"C": {NsPerOp: 1000},
		"D": {NsPerOp: 500}, // absent from new: ignored
	}
	new := map[string]Metrics{
		"A": {NsPerOp: 1200, AllocsPerOp: 5}, // within 1.25x: fine
		"B": {NsPerOp: 900, AllocsPerOp: 3},  // faster but now allocates: regression
		"C": {NsPerOp: 1500},                 // 1.5x: regression
		"E": {NsPerOp: 10},                   // new benchmark: ignored
	}
	lines := compare(old, new, 1.25)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	want := map[string]bool{"A": false, "B": true, "C": true}
	for _, d := range lines {
		if d.Regression != want[d.Name] {
			t.Errorf("%s: regression = %v, want %v (ratio %.2f)", d.Name, d.Regression, want[d.Name], d.Ratio)
		}
	}
	if lines[0].Name != "A" || lines[2].Name != "C" {
		t.Errorf("lines not sorted by name: %v", lines)
	}
}

func TestEmitAndRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := emit(oldPath, strings.NewReader(sampleOutput)); err != nil {
		t.Fatal(err)
	}
	faster := strings.ReplaceAll(sampleOutput, "811501 ns/op", "411501 ns/op")
	faster = strings.ReplaceAll(faster, "813499 ns/op", "413499 ns/op")
	if err := emit(newPath, strings.NewReader(faster)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	regressed, err := run(oldPath, newPath, 1.25, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("speedup reported as regression:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkEngine") {
		t.Fatalf("report missing benchmark rows:\n%s", sb.String())
	}
	// Reversed direction must regress.
	regressed, err = run(newPath, oldPath, 1.25, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("2x slowdown not flagged as regression")
	}
}

// TestParseBenchRejectsMixedHosts checks that one baseline cannot mix
// benchmarks run at two GOMAXPROCS values or on two CPUs.
func TestParseBenchRejectsMixedHosts(t *testing.T) {
	for _, in := range []string{
		sampleOutput + "BenchmarkOther-4\t10\t100 ns/op\n",
		sampleOutput + "BenchmarkOther\t10\t100 ns/op\n",
		sampleOutput + "cpu: another cpu\n",
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Errorf("mixed output accepted:\n%s", in)
		}
	}
}

// TestRunChecksHosts pins compare mode's three outcomes for the host
// stamp: two files from one host compare, two from different hosts are
// refused, and an unstamped baseline (one written before the stamp, as
// BENCH_9.json) is named as unstamped and still compared.
func TestRunChecksHosts(t *testing.T) {
	dir := t.TempDir()
	stamped := filepath.Join(dir, "stamped.json")
	if err := emit(stamped, strings.NewReader(sampleOutput)); err != nil {
		t.Fatal(err)
	}
	f, err := readFile(stamped)
	if err != nil {
		t.Fatal(err)
	}
	if f.Host == nil || f.Host.NumCPU != runtime.NumCPU() || f.Host.GoVersion != runtime.Version() ||
		f.Host.CPU != "some cpu" || f.Host.GOMAXPROCS != 8 {
		t.Fatalf("emit stamped %+v", f.Host)
	}
	write := func(name string, f File) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	other := *f.Host
	other.GOMAXPROCS = 1
	elsewhere := write("elsewhere.json", File{Schema: schema, Host: &other, Benchmarks: f.Benchmarks})
	unstamped := write("unstamped.json", File{Schema: schema, Benchmarks: f.Benchmarks})

	var sb strings.Builder
	if _, err := run(stamped, stamped, 1.25, &sb); err != nil || strings.Contains(sb.String(), "unstamped") {
		t.Errorf("same host: err %v, report:\n%s", err, sb.String())
	}
	sb.Reset()
	if _, err := run(stamped, elsewhere, 1.25, &sb); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("different hosts: err %v, want a refusal", err)
	}
	sb.Reset()
	regressed, err := run(unstamped, stamped, 1.25, &sb)
	if err != nil || regressed {
		t.Fatalf("unstamped baseline: regressed %v, err %v", regressed, err)
	}
	if out := sb.String(); !strings.Contains(out, unstamped+" is unstamped") || !strings.Contains(out, "BenchmarkEngine") {
		t.Errorf("unstamped baseline not named, or not compared:\n%s", out)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readFile(p); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestTrajectory pins the trend-table mode: columns in file order, "-" for
// benchmarks absent at a point, cumulative drift from the first present
// value, and a WORSENED flag on any consecutive step beyond the threshold.
func TestTrajectory(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := write("BENCH_1.json", `{"schema":"hottiles-bench/1","benchmarks":{
		"BenchmarkSteady":{"ns_op":100},
		"BenchmarkRegressed":{"ns_op":100}}}`)
	p2 := write("BENCH_2.json", `{"schema":"hottiles-bench/1","benchmarks":{
		"BenchmarkSteady":{"ns_op":105},
		"BenchmarkRegressed":{"ns_op":200},
		"BenchmarkNew":{"ns_op":50}}}`)

	var sb strings.Builder
	if err := trajectory([]string{p1, p2}, 1.25, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"BENCH_1", "BENCH_2", "BenchmarkSteady", "+5%", "+100%", "WORSENED"} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "BenchmarkNew"):
			if !strings.Contains(line, "-") {
				t.Errorf("absent point not rendered as -: %s", line)
			}
			if strings.Contains(line, "WORSENED") {
				t.Errorf("single-point benchmark flagged: %s", line)
			}
		case strings.Contains(line, "BenchmarkSteady"):
			if strings.Contains(line, "WORSENED") {
				t.Errorf("+5%% step flagged at 1.25x threshold: %s", line)
			}
		}
	}

	if err := trajectory([]string{p1}, 1.25, &sb); err == nil {
		t.Fatal("single-file trajectory accepted")
	}
}
