package obs

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins the pprof captures the CLIs expose: a CPU profile at
// cpuPath (started immediately) and a heap profile at memPath (written when
// the returned stop function runs). Either path may be empty. The stop
// function is never nil and is safe to defer unconditionally.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return func() error { return nil }, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return func() error { return nil }, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // fold transient garbage out of the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// WriteTrace finishes the tracer and emits it the way the CLIs' -trace flag
// specifies: path "-" prints the human-readable summary to w (top spans by
// cumulative time plus counters); any other path gets the JSON manifest,
// with parent directories created as needed (so -trace runs/x.json works on
// a fresh checkout).
func WriteTrace(t *Tracer, path string, w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteTrace on nil tracer")
	}
	if path == "-" {
		return t.WriteSummary(w)
	}
	return writeFile(path, t.WriteManifest)
}
