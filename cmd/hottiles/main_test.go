package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// through TestMain) on a missing input with both profiles on: the run must
// exit 1 through the fatal path and still leave two complete profiles,
// since a failing run is the one whose profiles are most wanted.
func TestFatalExitKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(os.Args[0], "-cpuprofile", cpu, "-memprofile", mem, filepath.Join(dir, "missing.mtx"))
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
	for _, path := range []string{cpu, mem} {
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
