package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration checks BENCHMARK.json's shape: names and units from the
// allowed alphabet and used once, bounded end-to-end metrics including
// setup_s, and a workload list the bench knows how to run.
func TestDeclaration(t *testing.T) {
	d, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q has characters outside [A-Za-z0-9_.-] or is too long", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range d.Workloads {
		use("workload", w.Name)
		if _, ok := serveLoads[w.Name]; !ok && w.Name != "study" {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, ms []metricDecl, max int, bounded bool) {
		if len(ms) < 1 || len(ms) > max {
			t.Errorf("%d %s metrics, want 1 to %d", len(ms), kind, max)
		}
		for _, m := range ms {
			use(kind, m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", d.EndToEnd, 16, true)
	check("per-layer", d.PerLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
}

// TestSmoke boots the real binaries on tiny inputs for every workload in
// both modes and checks that each run is correct and emits exactly the
// declared metrics with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	d, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range d.Workloads {
		for trace, want := range [][]metricDecl{d.EndToEnd, d.PerLayer} {
			var out bytes.Buffer
			args := []string{"-root", "..", "-smoke", "-seconds", "1", "-workload", w.Name, "-trace", strconv.Itoa(trace)}
			if code := run(args, &out); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.Name, trace, code, out.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var sum summary
			if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
				t.Fatalf("%s trace %d: last line is not the summary: %v", w.Name, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, failed %d of %d", w.Name, trace, sum.Correct, sum.Failed, sum.Attempted)
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := sum.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
