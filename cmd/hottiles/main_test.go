package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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
// complete profiles in one case, a manifest and a Chrome timeline in the
// other — since a failing run is the one whose artifacts are most wanted.
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

// checkTrace requires m.json in dir to read back as a run manifest and
// tl.json to parse as a Chrome trace-event timeline.
func checkTrace(t *testing.T, dir string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	defer f.Close()
	if _, err := obs.ReadManifest(f); err != nil {
		t.Fatal(err)
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
