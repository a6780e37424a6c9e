package experiments

// Golden-file regression tests: every deterministic study renders at a fixed
// small scale and seed and is compared against the pinned output under
// testdata/golden/. The differ is tolerance-aware — the non-numeric skeleton
// must match exactly, numeric tokens may drift within a small relative
// tolerance (guarding against platform float-formatting jitter without
// letting real regressions through). Regenerate after an intentional change
// with:
//
//	go test ./internal/experiments -run TestGolden -update
//
// The studies are the registry, Studies; the wall-clock ones (Fig18's
// preprocessing-overhead columns) differ on every run and are skipped.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// goldenTol is the maximum allowed relative drift per numeric token.
const goldenTol = 1e-6

func TestGolden(t *testing.T) {
	// One shared Env: the studies overlap heavily and the singleflight
	// caches keep the whole sweep close to the cost of the largest study.
	e := NewEnv(512, 1)
	for _, st := range Studies {
		if st.WallClock {
			continue
		}
		st := st
		t.Run(st.Name, func(t *testing.T) {
			res, err := st.Run(context.Background(), e)
			if err != nil {
				t.Fatalf("%s: %v", st.Name, err)
			}
			var buf bytes.Buffer
			res.Render(&buf)
			path := goldenPath(st.Name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if err := diffGolden(string(want), buf.String(), goldenTol); err != nil {
				t.Errorf("%s drifted from %s:\n%v", st.Name, path, err)
			}
		})
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".golden") }

// TestGoldenFilesMatchStudies checks the registry against testdata/golden/
// in both directions: every deterministic study has a golden file (so a new
// study cannot silently go unpinned), and every golden file belongs to a
// deterministic study (so a renamed or removed one leaves nothing stale).
func TestGoldenFilesMatchStudies(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, f := range files {
		pinned[strings.TrimSuffix(filepath.Base(f), ".golden")] = true
	}
	for _, st := range Studies {
		switch {
		case st.WallClock && pinned[st.Name]:
			t.Errorf("wall-clock study %s has a golden file", st.Name)
		case !st.WallClock && !pinned[st.Name]:
			t.Errorf("study %s has no golden file %s", st.Name, goldenPath(st.Name))
		}
		delete(pinned, st.Name)
	}
	for name := range pinned {
		t.Errorf("golden file %s has no study", goldenPath(name))
	}
}

// TestStudiesOrdered pins the registry's names and order: `spmmsim all`
// runs them in this order, and the repository benchmark's study.<name>_s
// metrics (BENCHMARK.json) are keyed by these names, so a rename or
// reorder changes what the benchmark reports.
func TestStudiesOrdered(t *testing.T) {
	want := []string{"fig4", "fig5", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "tab6", "tab7", "tab9",
		"evolve", "gnn", "kernels", "reorder", "vislat"}
	var got []string
	for _, st := range Studies {
		got = append(got, st.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Studies = %v, want %v", got, want)
	}
	all, err := Resolve([]string{"all"})
	if err != nil || len(all) != len(Studies) {
		t.Fatalf("Resolve(all) = %d studies, %v", len(all), err)
	}
	for _, names := range [][]string{{"fig10", "fgi11"}, {"fgi11", "fig10"}, {"all", "fig4"}} {
		if _, err := Resolve(names); err == nil {
			t.Errorf("Resolve(%v) accepted an unknown name", names)
		}
	}
}

// numToken matches the numeric tokens the differ compares under tolerance.
var numToken = regexp.MustCompile(`-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?`)

// diffGolden compares rendered output against a golden file: the non-numeric
// skeleton must be byte-identical and each numeric token must be within
// relative tolerance tol of its counterpart. Errors carry the first
// offending line so drift is easy to localize.
func diffGolden(want, got string, tol float64) error {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		return fmt.Errorf("line count %d, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if err := diffLine(wantLines[i], gotLines[i], tol); err != nil {
			return fmt.Errorf("line %d: %v\n  want: %s\n  got:  %s", i+1, err, wantLines[i], gotLines[i])
		}
	}
	return nil
}

func diffLine(want, got string, tol float64) error {
	if numToken.ReplaceAllString(want, "#") != numToken.ReplaceAllString(got, "#") {
		return fmt.Errorf("text mismatch")
	}
	wantNums := numToken.FindAllString(want, -1)
	gotNums := numToken.FindAllString(got, -1)
	if len(wantNums) != len(gotNums) {
		return fmt.Errorf("%d numeric tokens, want %d", len(gotNums), len(wantNums))
	}
	for j := range wantNums {
		w, errW := strconv.ParseFloat(wantNums[j], 64)
		g, errG := strconv.ParseFloat(gotNums[j], 64)
		if errW != nil || errG != nil {
			if wantNums[j] != gotNums[j] {
				return fmt.Errorf("token %d: %q vs %q", j, gotNums[j], wantNums[j])
			}
			continue
		}
		if !withinTol(w, g, tol) {
			return fmt.Errorf("token %d: %v drifted from %v (tol %g)", j, g, w, tol)
		}
	}
	return nil
}

// withinTol reports whether got is within relative tolerance of want
// (absolute tolerance near zero).
func withinTol(want, got, tol float64) bool {
	if want == got {
		return true
	}
	diff := math.Abs(want - got)
	scale := math.Max(math.Abs(want), math.Abs(got))
	if scale < 1 {
		return diff <= tol
	}
	return diff <= tol*scale
}

// TestGoldenDifferRejectsDrift pins the differ's own behavior: numbers
// beyond tolerance and skeleton edits both fail, while in-tolerance float
// jitter passes.
func TestGoldenDifferRejectsDrift(t *testing.T) {
	base := "speedup 1.500x over baseline\n"
	if err := diffGolden(base, base, goldenTol); err != nil {
		t.Fatalf("identical text rejected: %v", err)
	}
	if err := diffGolden(base, "speedup 1.5000000001x over baseline\n", 1e-6); err != nil {
		t.Fatalf("in-tolerance drift rejected: %v", err)
	}
	if err := diffGolden(base, "speedup 1.600x over baseline\n", 1e-6); err == nil {
		t.Fatal("out-of-tolerance drift accepted")
	}
	if err := diffGolden(base, "speedup 1.500x over BASELINE\n", 1e-6); err == nil {
		t.Fatal("skeleton edit accepted")
	}
	if err := diffGolden(base, "speedup 1.500x over baseline 7\n", 1e-6); err == nil {
		t.Fatal("extra numeric token accepted")
	}
}
