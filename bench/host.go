package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostStamp records where a result was measured, so -compare can refuse
// to read a difference between two machines as a difference between two
// commits.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func stampHost(root string) hostStamp {
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (git is not asked to search the parent directories).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// childAttr makes a child process die with the bench, so an interrupted
// run leaves no daemon behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// runCmd runs a command to completion in dir, folding its output into the
// error when it fails.
func runCmd(ctx context.Context, dir, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = childAttr()
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, out.Bytes())
	}
	return nil
}

// rusageOf returns the resource usage of an exited child.
func rusageOf(ps *os.ProcessState) *syscall.Rusage {
	if ps == nil {
		return &syscall.Rusage{}
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return &syscall.Rusage{}
	}
	return ru
}

// cpuSeconds is the user plus system time in a rusage.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the peak resident set in a rusage (Linux reports KiB).
func maxRSSMB(ru *syscall.Rusage) float64 {
	return float64(ru.Maxrss) / 1024
}
