package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// toolDir is the directory TestMain creates for the shared hottileslint
// binary and removes once every test has run.
var toolDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hottileslint-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// builtTool runs the go build the first time a test asks for the binary.
var builtTool = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(toolDir, "hottileslint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// buildTool compiles the hottileslint binary once per test process and
// returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin, err := builtTool()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// repoRoot returns the module root (tests run in cmd/hottileslint).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestStandaloneCleanRepo runs the full suite in standalone mode over the
// module, mirroring `make lint`: exit 0, no output.
func TestStandaloneCleanRepo(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("standalone run: %v\n%s", err, out)
	}
}

// TestStandaloneFindsViolation points the tool at a scratch module with a
// naked go statement: exit code 1 and a nakedgo diagnostic, in both text
// and -json form.
func TestStandaloneFindsViolation(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "scratch.go"), `package scratch

// Leak spawns an unpooled goroutine.
func Leak(fn func()) {
	go fn()
}
`)

	cmd := exec.Command(bin, "-C", dir, "./...")
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d (err %v), want 1\n%s", code, err, out)
	}
	if !strings.Contains(string(out), "nakedgo") || !strings.Contains(string(out), "raw go statement") {
		t.Errorf("diagnostic output missing nakedgo finding:\n%s", out)
	}

	cmd = exec.Command(bin, "-C", dir, "-json", "./...")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("-json exit code = %d, want 1\n%s", code, out)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		Posn     string `json:"posn"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Analyzer != "nakedgo" {
		t.Errorf("-json diagnostics = %+v, want one nakedgo finding", diags)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSyntheticModule lays out a scratch module whose package paths mirror
// the scoped suffixes (internal/sim, internal/obs, internal/par) and which violates every
// analyzer in the suite exactly once.
func writeSyntheticModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "obs", "obs.go"), `// Package obs stubs the observability surface the suite matches by path.
package obs

type Tracer struct{}

func (t *Tracer) Phase(name string) *Span { return &Span{} }

type Span struct{}

func (s *Span) Start(name string, attrs ...string) *Span { return &Span{} }
func (s *Span) End()                                     {}

type Counter struct{}

func NewCounter(name string) *Counter { return &Counter{} }
`)
	writeFile(t, filepath.Join(dir, "internal", "par", "par.go"), `// Package par stubs the singleflight cache lockcopy matches by path.
package par

type Cache[K comparable, V any] struct{ m map[K]V }

func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) { return build() }
`)
	writeFile(t, filepath.Join(dir, "internal", "sim", "sim.go"), `// Package sim trips the path-scoped analyzers.
package sim

import (
	"context"
	"time"
)

//hot:path
func Table() map[int]int {
	return map[int]int{1: 2} // hotalloc
}

func Seed() int64 { return time.Now().UnixNano() } // detrand

func Mint() context.Context { return context.Background() } // ctxflow

func Close(a, b float64) bool { return a*2 == b+1 } // floateq
`)
	writeFile(t, filepath.Join(dir, "work", "work.go"), `// Package work trips the repo-wide analyzers.
package work

import (
	"fmt"

	"scratch/internal/obs"
	"scratch/internal/par"
)

var reqs = obs.NewCounter("Bad.Name") // metricname

type entry struct{ n int }

func Rewrap(c *par.Cache[string, *entry]) {
	e, _ := c.Get("k", func() (*entry, error) { return &entry{}, nil })
	e.n = 2 // lockcopy
}

func Leak(fn func()) { go fn() } // nakedgo

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // mapiter
	}
	return keys
}

func Shadowed() int {
	len := 3 // shadow
	return len
}

func Wrap(err error) error {
	return fmt.Errorf("work: %v", err) // errwrap
}

func Open(tr *obs.Tracer) {
	tr.Phase("exec").Start("job") // spanend
}
`)
	return dir
}

// suiteMessages maps each analyzer to a substring unique to the diagnostic
// the synthetic module provokes from it.
var suiteMessages = map[string]string{
	"mapiter":    "inside range over map without a following sort",
	"nakedgo":    "raw go statement",
	"spanend":    "result of Start discarded",
	"floateq":    "exact == on floating point",
	"lockcopy":   "a value shared via par.Cache.Get",
	"shadow":     "shadows the predeclared builtin",
	"hotalloc":   "map literal in hot path",
	"detrand":    "time.Now in deterministic core",
	"ctxflow":    "context.Background below the facade",
	"errwrap":    "loses the chain",
	"metricname": "does not match the registry grammar",
}

// TestStandaloneSyntheticModule runs the real binary over the synthetic
// module: all eleven analyzers must fire through the driver `make lint`
// uses.
func TestStandaloneSyntheticModule(t *testing.T) {
	bin := buildTool(t)
	dir := writeSyntheticModule(t)

	cmd := exec.Command(bin, "-C", dir, "./...")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	for name, msg := range suiteMessages {
		if !strings.Contains(string(out), msg) {
			t.Errorf("run missing %s diagnostic (%q):\n%s", name, msg, out)
		}
	}
}
