// Command benchdiff maintains the repo's benchmark baseline. It has three
// modes:
//
//	go test -bench=... -benchmem ./... | benchdiff -emit BENCH_4.json
//	benchdiff [-threshold 1.25] BENCH_old.json BENCH_new.json
//	benchdiff -trajectory BENCH_4.json BENCH_7.json BENCH_8.json ...
//
// -emit parses `go test -bench` output from stdin into a JSON map of
// benchmark name to {ns/op, B/op, allocs/op} (the committed BENCH_*.json
// perf-trajectory points; repeated runs of one benchmark are averaged),
// stamped with the host: the CPU `go test` names, the GOMAXPROCS the
// benchmarks ran at, runtime.NumCPU and the Go version.
// Compare mode prints the per-benchmark time ratio between two such files
// and exits non-zero when any shared benchmark slowed down by more than
// the threshold factor, or when a zero-allocation benchmark started
// allocating — the regressions `make bench` is meant to catch. It refuses
// two stamped files from different hosts, and names an unstamped file
// (one written before the stamp existed) without refusing it.
// -trajectory reads the baselines in argument order (the PR sequence) and
// prints one ns/op column per file plus the cumulative drift, flagging any
// consecutive step that worsened beyond the threshold; it is informational
// and always exits 0.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Metrics are the per-benchmark numbers tracked in a baseline file.
type Metrics struct {
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  float64 `json:"b_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

// File is the committed BENCH_*.json schema.
type File struct {
	Schema     string             `json:"schema"`
	Host       *Host              `json:"host,omitempty"` // nil in files from before the stamp
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Host identifies the machine and toolchain a baseline was measured on.
type Host struct {
	CPU        string `json:"cpu"`        // the "cpu:" line of the go test output
	GOMAXPROCS int    `json:"gomaxprocs"` // the benchmark names' -N suffix (none: 1)
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func (h Host) String() string {
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, %s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

const schema = "hottiles-bench/1"

// benchLine matches one result line of `go test -bench` output:
// name, iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// trimProcs strips the trailing -<GOMAXPROCS> suffix go test appends to
// benchmark names, so baselines compare across machines, and returns the
// GOMAXPROCS it names: 1 when there is none, as go test omits it then.
func trimProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// parseBench reads `go test -bench` output, averages the recognized
// metrics per benchmark name, and stamps the file with what the output
// says of the host: its CPU and GOMAXPROCS.
func parseBench(r io.Reader) (*File, error) {
	sums := map[string]*Metrics{}
	counts := map[string]int{}
	host := Host{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			if host.CPU != "" && host.CPU != cpu {
				return nil, fmt.Errorf("benchdiff: output from two CPUs: %q and %q", host.CPU, cpu)
			}
			host.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, procs := trimProcs(m[1])
		if host.GOMAXPROCS != 0 && host.GOMAXPROCS != procs {
			return nil, fmt.Errorf("benchdiff: %s ran at GOMAXPROCS %d, earlier benchmarks at %d", m[1], procs, host.GOMAXPROCS)
		}
		host.GOMAXPROCS = procs
		fields := strings.Fields(m[3])
		var cur Metrics
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				cur.NsPerOp = v
				seen = true
			case "B/op":
				cur.BytesPerOp = v
			case "allocs/op":
				cur.AllocsPerOp = v
			}
		}
		if !seen {
			continue
		}
		s := sums[name]
		if s == nil {
			s = &Metrics{}
			sums[name] = s
		}
		s.NsPerOp += cur.NsPerOp
		s.BytesPerOp += cur.BytesPerOp
		s.AllocsPerOp += cur.AllocsPerOp
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Metrics, len(sums))
	for name, s := range sums {
		n := float64(counts[name])
		out[name] = Metrics{
			NsPerOp:     s.NsPerOp / n,
			BytesPerOp:  s.BytesPerOp / n,
			AllocsPerOp: s.AllocsPerOp / n,
		}
	}
	return &File{Schema: schema, Host: &host, Benchmarks: out}, nil
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if f.Benchmarks == nil {
		return nil, fmt.Errorf("benchdiff: %s: no benchmarks", path)
	}
	return &f, nil
}

// diffLine is one row of a comparison report.
type diffLine struct {
	Name       string
	Old, New   Metrics
	Ratio      float64 // new/old ns per op
	Regression bool
}

// compare pairs the benchmarks present in both files. A row regresses when
// its time ratio exceeds threshold or when a previously allocation-free
// benchmark now allocates.
func compare(old, new map[string]Metrics, threshold float64) []diffLine {
	var out []diffLine
	for name, n := range new {
		o, ok := old[name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		d := diffLine{Name: name, Old: o, New: n, Ratio: n.NsPerOp / o.NsPerOp}
		d.Regression = d.Ratio > threshold ||
			(o.AllocsPerOp == 0 && n.AllocsPerOp > 0)
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b diffLine) int {
		return cmp.Compare(a.Name, b.Name)
	})
	return out
}

// emit writes the baseline for the benchmark output on in, stamped with
// this process's host: the benchmarks must have run on this machine and
// toolchain, as when go test pipes into benchdiff.
func emit(path string, in io.Reader) error {
	f, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("benchdiff: no benchmark lines on stdin")
	}
	f.Host.NumCPU, f.Host.GoVersion = runtime.NumCPU(), runtime.Version()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s (%s)\n", len(f.Benchmarks), path, f.Host)
	return nil
}

func run(oldPath, newPath string, threshold float64, w io.Writer) (bool, error) {
	oldF, err := readFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readFile(newPath)
	if err != nil {
		return false, err
	}
	if oldF.Host != nil && newF.Host != nil && *oldF.Host != *newF.Host {
		return false, fmt.Errorf("benchdiff: %s and %s come from different hosts (%s; %s): their times do not compare",
			oldPath, newPath, oldF.Host, newF.Host)
	}
	unstamped := func(path string, f *File) {
		if f.Host == nil {
			fmt.Fprintf(w, "benchdiff: %s is unstamped: its host is unknown, so its times may not compare\n", path)
		}
	}
	unstamped(oldPath, oldF)
	unstamped(newPath, newF)
	lines := compare(oldF.Benchmarks, newF.Benchmarks, threshold)
	if len(lines) == 0 {
		return false, fmt.Errorf("benchdiff: no benchmarks in common")
	}
	fmt.Fprintf(w, "%-52s%14s%14s%8s  %s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs")
	anyRegressed := false
	for _, d := range lines {
		flag := ""
		if d.Regression {
			flag = "  REGRESSION"
			anyRegressed = true
		}
		fmt.Fprintf(w, "%-52s%14.0f%14.0f%8.2f  %.0f→%.0f%s\n",
			d.Name, d.Old.NsPerOp, d.New.NsPerOp, d.Ratio,
			d.Old.AllocsPerOp, d.New.AllocsPerOp, flag)
	}
	return anyRegressed, nil
}

// trajRow is one benchmark's history across an ordered list of baseline
// files: NaN marks files where the benchmark does not appear.
type trajRow struct {
	Name    string
	NsPerOp []float64
	// Worsened flags a consecutive present-to-present step whose ratio
	// exceeded the threshold.
	Worsened bool
}

// trajectoryRows pairs every benchmark seen anywhere with its per-file
// history, in file order.
func trajectoryRows(files []*File, threshold float64) []trajRow {
	names := map[string]bool{}
	for _, f := range files {
		for n := range f.Benchmarks {
			names[n] = true
		}
	}
	rows := make([]trajRow, 0, len(names))
	for name := range names {
		row := trajRow{Name: name, NsPerOp: make([]float64, len(files))}
		prev := 0.0
		for i, f := range files {
			m, ok := f.Benchmarks[name]
			if !ok || m.NsPerOp <= 0 {
				row.NsPerOp[i] = math.NaN()
				continue
			}
			row.NsPerOp[i] = m.NsPerOp
			if prev > 0 && m.NsPerOp/prev > threshold {
				row.Worsened = true
			}
			prev = m.NsPerOp
		}
		rows = append(rows, row)
	}
	slices.SortFunc(rows, func(a, b trajRow) int {
		return cmp.Compare(a.Name, b.Name)
	})
	return rows
}

// trajectory renders the per-benchmark trend table across the baselines in
// path order. It never fails on drift — the table is the deliverable — but
// flags steps beyond the threshold so a reader can spot the PR at fault.
func trajectory(paths []string, threshold float64, w io.Writer) error {
	if len(paths) < 2 {
		return fmt.Errorf("benchdiff: -trajectory needs at least two baseline files")
	}
	files := make([]*File, len(paths))
	for i, p := range paths {
		f, err := readFile(p)
		if err != nil {
			return err
		}
		files[i] = f
	}

	fmt.Fprintf(w, "%-52s", "benchmark")
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".json")
		fmt.Fprintf(w, "%14s", base)
	}
	fmt.Fprintf(w, "%9s\n", "drift")
	for _, row := range trajectoryRows(files, threshold) {
		fmt.Fprintf(w, "%-52s", row.Name)
		first, last := math.NaN(), math.NaN()
		for _, v := range row.NsPerOp {
			if math.IsNaN(v) {
				fmt.Fprintf(w, "%14s", "-")
				continue
			}
			fmt.Fprintf(w, "%14.0f", v)
			if math.IsNaN(first) {
				first = v
			}
			last = v
		}
		if math.IsNaN(first) {
			fmt.Fprintf(w, "%9s", "-")
		} else {
			fmt.Fprintf(w, "%+8.0f%%", (last/first-1)*100)
		}
		if row.Worsened {
			fmt.Fprint(w, "  WORSENED")
		}
		fmt.Fprintln(w)
	}
	return nil
}

func main() {
	emitPath := flag.String("emit", "", "parse `go test -bench` output from stdin and write a baseline JSON to this path")
	threshold := flag.Float64("threshold", 1.25, "fail when new/old ns-per-op exceeds this factor")
	traj := flag.Bool("trajectory", false, "print the per-benchmark ns/op trend across the baseline files given in order")
	flag.Parse()

	var err error
	switch {
	case *emitPath != "":
		err = emit(*emitPath, os.Stdin)
	case *traj:
		err = trajectory(flag.Args(), *threshold, os.Stdout)
	case flag.NArg() == 2:
		var regressed bool
		regressed, err = run(flag.Arg(0), flag.Arg(1), *threshold, os.Stdout)
		if err == nil && regressed {
			fmt.Fprintf(os.Stderr, "benchdiff: regression beyond %.2fx threshold\n", *threshold)
			os.Exit(1)
		}
	default:
		err = fmt.Errorf("usage: benchdiff -emit out.json < bench-output, or benchdiff [-threshold f] old.json new.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
