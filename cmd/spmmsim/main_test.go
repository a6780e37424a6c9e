package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
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

// TestTimelineChromeSchema runs one experiment exactly the way
// `spmmsim -timeline out.json fig10` does and validates the exported
// timeline against the Chrome trace-event schema Perfetto consumes: valid
// JSON, only known phase codes, the two clock processes named, and at
// least one simulated worker slice.
func TestTimelineChromeSchema(t *testing.T) {
	prev := obs.SetDeepTiming(true)
	defer obs.SetDeepTiming(prev)
	tl := obs.NewTimeline(0)
	e := newTestEnv()
	e.SetTimeline(tl)
	par.SetTimeline(tl)
	defer par.SetTimeline(nil)

	fig10, err := experiments.Resolve([]string{"fig10"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fig10[0].Run(context.Background(), e); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
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
}
