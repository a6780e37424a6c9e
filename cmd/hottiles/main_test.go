package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// runMainEnv, set in a child process's environment, makes TestMain run the
// CLI's main instead of the tests.
const runMainEnv = "HOTTILES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFatalExitKeepsProfiles runs the CLI (this test binary, re-entered
// through TestMain) on a missing input: the run must exit 1 through the
// fatal path and still leave every output its flags asked for — two
// complete profiles in one case, a manifest that carries the error and a
// Chrome timeline in the other — since a failing run is the one whose
// artifacts are most wanted.
func TestFatalExitKeepsProfiles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags func(dir string) []string
		check func(t *testing.T, dir string)
	}{
		{"profiles", func(dir string) []string {
			return []string{"-cpuprofile", filepath.Join(dir, "cpu.prof"), "-memprofile", filepath.Join(dir, "mem.prof")}
		}, checkProfiles},
		{"trace", func(dir string) []string {
			return []string{"-trace", filepath.Join(dir, "m.json"), "-timeline", filepath.Join(dir, "tl.json")}
		}, checkTrace},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], append(tc.flags(dir), filepath.Join(dir, "missing.mtx"))...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = io.Discard, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("err = %v, want exit status 1 (stderr: %s)", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "hottiles.fatal") {
				t.Fatalf("stderr lacks the hottiles.fatal line:\n%s", stderr.String())
			}
			tc.check(t, dir)
		})
	}
}

// checkProfiles requires cpu.prof and mem.prof in dir to be complete pprof
// profiles.
func checkProfiles(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{"cpu.prof", "mem.prof"} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		// A pprof profile is a gzip-compressed protobuf.
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s (%d bytes) is not gzip data: %v", path, len(data), err)
		}
		body, err := io.ReadAll(zr)
		if err != nil || len(body) == 0 {
			t.Fatalf("%s: truncated profile (%d bytes decoded): %v", path, len(body), err)
		}
	}
}

// checkTrace requires m.json in dir to read back as a run manifest whose
// error field names the missing input, and tl.json to parse as a Chrome
// trace-event timeline.
func checkTrace(t *testing.T, dir string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Error, "missing.mtx") {
		t.Fatalf("manifest error = %q, want the failure naming missing.mtx", m.Error)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tl.json"))
	if err != nil {
		t.Fatalf("timeline not written: %v", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil || chrome.TraceEvents == nil {
		t.Fatalf("timeline is not Chrome trace JSON (%v):\n%s", err, data)
	}
}

// TestSectionDumps runs the CLI with -out-hot and -out-cold on one fixed
// matrix for a COO architecture and a CSR one. The two sections must be
// disjoint, their union must be the input matrix, and each file's bytes
// are pinned (recorded on linux/amd64).
func TestSectionDumps(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	dir := t.TempDir()
	b, _ := gen.ByShort("pap")
	in := filepath.Join(dir, "in.mtx")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Write(f, b.Build(1, 256)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m := readMTX(t, in)
	for _, c := range []struct {
		arch, hot, cold string
	}{
		{"spade-sextans:4",
			"c5baaaa1b56f11e1e1652bbbba3b78a897da9261e9dd45dea22e60482a23cc5e",
			"ad29f0285b3002914113f2c8a5a4c72cf9f2e39537ea79317237e505076c86d7"},
		{"piuma",
			"e88245483eadaf678ccb8592db0ce27298c8c2738b14b59c6fae8f67430ddb4b",
			"9e2b20838e22c3f83e68e783e2685dd33c6a3962f873bea45e758af437977a99"},
	} {
		hotPath, coldPath := filepath.Join(dir, "hot.mtx"), filepath.Join(dir, "cold.mtx")
		cmd := exec.Command(os.Args[0], "-arch", c.arch, "-out-hot", hotPath, "-out-cold", coldPath, in)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", c.arch, err, out)
		}
		hot, cold := readMTX(t, hotPath), readMTX(t, coldPath)
		if hot.NNZ() == 0 || cold.NNZ() == 0 {
			t.Fatalf("%s: %d hot and %d cold nonzeros, want both sections", c.arch, hot.NNZ(), cold.NNZ())
		}
		type coord struct{ r, c int32 }
		union := make(map[coord]float64, m.NNZ())
		for _, s := range []*sparse.COO{hot, cold} {
			for i := range s.Vals {
				k := coord{s.Rows[i], s.Cols[i]}
				if _, dup := union[k]; dup {
					t.Fatalf("%s: (%d,%d) in both sections", c.arch, k.r, k.c)
				}
				union[k] = s.Vals[i]
			}
		}
		if len(union) != m.NNZ() {
			t.Fatalf("%s: sections hold %d nonzeros, input %d", c.arch, len(union), m.NNZ())
		}
		for i := range m.Vals {
			if v, ok := union[coord{m.Rows[i], m.Cols[i]}]; !ok || v != m.Vals[i] {
				t.Fatalf("%s: input nonzero (%d,%d) missing or changed", c.arch, m.Rows[i], m.Cols[i])
			}
		}
		for _, p := range []struct{ path, want string }{{hotPath, c.hot}, {coldPath, c.cold}} {
			data, err := os.ReadFile(p.path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != p.want {
				t.Errorf("%s: %s sha256 %s, want %s", c.arch, filepath.Base(p.path), got, p.want)
			}
		}
	}
}

func readMTX(t *testing.T, path string) *sparse.COO {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mm.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
