// Command bench is the repository benchmark. It builds cmd/hottilesd and
// cmd/spmmsim from the source tree it runs in, drives them as black boxes
// through one named workload, checks their outputs against in-process
// runs of the same code, and prints every metric BENCHMARK.json declares,
// by name and with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// per-layer set, measured by calling each layer's function in process
// under bench-side spans after the untraced timed phase.
//
// Usage, from the repository root (run.sh builds this command first):
//
//	sh bench/run.sh --workload plan-build --seed 1 --seconds 30 --trace 0
//	sh bench/run.sh -compare 'base/*.json' 'change/*.json'
//
// bench/README.md describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	hottiles "repro"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json the bench reads: the workload
// names it accepts and the metrics it must emit.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func (d *declaration) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out writes: the summary plus what a later -compare
// needs to judge it (workload, seed, host and input stamps).
type record struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  int          `json:"seconds"`
	Trace    bool         `json:"trace"`
	Host     hostStamp    `json:"host"`
	Inputs   []inputStamp `json:"inputs"`
	Notes    []string     `json:"notes"`
	summary
}

type inputStamp struct {
	Class  string  `json:"class"`
	Rows   int     `json:"rows"`
	NNZ    int     `json:"nnz"`
	BodyMB float64 `json:"body_mb"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the request bodies; 1 is the default, 2 is held out for checking claims")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: emit the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the bench's span tree to this file")
	out := fs.String("out", "", "also write the full result record (JSON) to this file")
	root := fs.String("root", ".", "repository root")
	smoke := fs.Bool("smoke", false, "tiny inputs and no sample floor, for tests")
	compareMode := fs.Bool("compare", false, "compare two sets of -out records: -compare BASE_GLOB CHANGE_GLOB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	decl, err := loadDeclaration(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two globs of record files")
			return 2
		}
		if err := compare(decl, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if !decl.hasWorkload(*workload) || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of BENCHMARK.json's), -trace 0|1 and -seconds ≥ 1\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{
		root:     *root,
		out:      filepath.Join(*root, ".bench_build"),
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		smoke:    *smoke,
		stdout:   stdout,
		metrics:  map[string]float64{},
	}
	if *trace == 1 {
		b.tracer = obs.New("bench")
		b.tracer.SetConfig("workload", *workload)
		b.tracer.SetConfig("seed", fmt.Sprint(*seed))
	}
	if err := b.run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	want := decl.EndToEnd
	if b.tracer != nil {
		want = decl.PerLayer
	}
	sum := summary{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured on %s\n", m.Name, b.workload)
			return 1
		}
		sum.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if *spans != "" && b.tracer != nil {
		if err := obs.WriteTrace(b.tracer, *spans, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		rec := record{
			Workload: b.workload, Seed: b.seed, Seconds: *seconds, Trace: b.tracer != nil,
			Host: b.host, Inputs: b.stamps, Notes: b.notes, summary: sum,
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	root, out string // repository root; where builds, logs and temp files go
	tmp       string // this run's own temporary directory under out
	workload  string
	seed      int64
	seconds   time.Duration
	smoke     bool
	tracer    *obs.Tracer // nil in untraced runs
	stdout    io.Writer

	daemonBin, spmmsimBin string
	arch                  hottiles.Arch
	inputs                inputSet
	gnn                   *gnnSet // built on first use
	host                  hostStamp
	stamps                []inputStamp

	// opPath is the layer path of the timed phase's operations ("plan",
	// "gnn" or "pass"); clientMS and programMS are their mean latency as the
	// client and as the program itself measured it.
	opPath              string
	clientMS, programMS float64
	// studyWall (seconds) and studySHA are the study workload's median
	// untraced pass and its output hash.
	studyWall float64
	studySHA  string

	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
}

// note prints one progress or diagnostic line and keeps it for the record.
func (b *bench) note(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	b.notes = append(b.notes, line)
	fmt.Fprintln(b.stdout, "#", line)
}

// check counts a failed output check; the run then reports correct=false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failed++
		b.note("CHECK FAILED: "+format, args...)
	}
}

func (b *bench) run(ctx context.Context) error {
	if err := b.build(ctx); err != nil {
		return err
	}
	var err error
	if b.tmp, err = os.MkdirTemp(filepath.Join(b.out, "tmp"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.tmp)
	if b.arch, err = hottiles.ParseArch(daemonArch); err != nil {
		return err
	}
	if b.inputs, err = makeInputs(b.smoke); err != nil {
		return err
	}
	h := stampHost(b.root)
	b.host = h
	b.note("host: %d cores, GOMAXPROCS %d, %s, %s, commit %s; seed %d", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit, b.seed)
	for i, in := range b.inputs {
		s := inputStamp{
			Class: in.class, Rows: in.rows, NNZ: in.nnz,
			BodyMB: float64(len(b.inputs.body(nil, b.seed, planStream, i))) / mib,
		}
		b.stamps = append(b.stamps, s)
		b.note("input %s: %d rows, %d nnz, %.2f MB body", s.Class, s.Rows, s.NNZ, s.BodyMB)
	}
	if b.workload == "study" {
		err = b.study(ctx)
	} else {
		err = b.serve(ctx, serveLoads[b.workload])
	}
	if err != nil {
		return err
	}
	if b.tracer != nil {
		return b.ladder(ctx)
	}
	return nil
}

// build compiles the two programs under test from the source tree.
func (b *bench) build(ctx context.Context) error {
	bin := filepath.Join(b.out, "bin")
	if err := os.MkdirAll(filepath.Join(b.out, "tmp"), 0o755); err != nil {
		return err
	}
	if err := runCmd(ctx, b.root, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/hottilesd", "./cmd/spmmsim"); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	b.daemonBin = filepath.Join(bin, "hottilesd")
	b.spmmsimBin = filepath.Join(bin, "spmmsim")
	return nil
}

const mib = 1 << 20
