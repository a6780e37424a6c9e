// Command hottiles runs the HotTiles preprocessing pipeline on a
// MatrixMarket file: it tiles the matrix, models every tile for the chosen
// heterogeneous architecture, partitions it into hot and cold sections, and
// reports the decision — optionally simulating the partitioned execution
// and writing the sections back out as MatrixMarket files.
//
// Usage:
//
//	hottiles -arch spade-sextans:4 -strategy hottiles -simulate matrix.mtx
//	hottiles -arch piuma -out-hot hot.mtx -out-cold cold.mtx matrix.mtx
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	hottiles "repro"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/viz"
)

func main() {
	archName := flag.String("arch", "spade-sextans:4",
		"architecture: spade-sextans[:scale], spade-sextans-pcie, piuma, cpu-dsa")
	strategy := flag.String("strategy", "hottiles", "hottiles|iunaware|hotonly|coldonly")
	tileSize := flag.Int("tile", 0, "tile size override (0 = architecture default)")
	opsPerMAC := flag.Float64("ops", 2, "arithmetic-intensity factor (2 = plain SpMM)")
	seed := flag.Int64("seed", 1, "seed for IUnaware's random assignment")
	simulate := flag.Bool("simulate", false, "simulate the partitioned execution")
	reorderPass := flag.String("reorder", "none", "reordering pass: none|degree|bfs|random")
	autotile := flag.Bool("autotile", false, "search tile sizes {64..1024} with the model and use the best")
	kernelName := flag.String("kernel", "spmm", "kernel: spmm|spmv|sddmm")
	k := flag.Int("k", 0, "dense column count override for simulation (0 = default)")
	outHot := flag.String("out-hot", "", "write the hot section as MatrixMarket")
	outCold := flag.String("out-cold", "", "write the cold section as MatrixMarket")
	savePlan := flag.String("save-plan", "", "serialize the preprocessing plan to this file")
	loadPlan := flag.String("load-plan", "", "skip preprocessing and load a serialized plan")
	mapFile := flag.String("map", "", "write the tile-assignment map (Figure 5 style) as PGM")
	bwTraceFile := flag.String("bwtrace", "", "with -simulate: write the bandwidth trace strip as PGM")
	tracePath := flag.String("trace", "", `write a JSON run manifest to this path ("-" prints a summary)`)
	timelinePath := flag.String("timeline", "", `with -simulate: write a Chrome trace-event timeline (Perfetto) to this path ("-" prints a per-track summary)`)
	debugAddr := flag.String("debug-addr", "", "serve the live debug endpoint (pprof, /metrics, /progress) on this address, e.g. :6060")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	logSpec := flag.String("log", "info:text", "diagnostic log level and format: level[:format], e.g. debug, warn:json")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hottiles [flags] matrix.mtx")
		flag.PrintDefaults()
		os.Exit(2)
	}
	logOpts, err := obs.ParseLogFlag(*logSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hottiles:", err)
		os.Exit(2)
	}
	logger = obs.NewLogger(os.Stderr, logOpts)

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	if *debugAddr != "" {
		addr, stop, srvErr := obs.ServeDebug(*debugAddr)
		if srvErr != nil {
			fail(srvErr)
		}
		defer stop()
		logger.LogAttrs(context.Background(), slog.LevelInfo, "hottiles.debug.listen", slog.String("addr", addr))
	}
	obs.SetDeepTiming(*tracePath != "" || *timelinePath != "" || *debugAddr != "")
	var tl *obs.Timeline
	if *timelinePath != "" || *debugAddr != "" {
		tl = obs.NewTimeline(0)
		par.SetTimeline(tl)
	}
	// The tracer feeds both the manifest and the timeline; nil when neither
	// (nor the debug endpoint) is on, and every trace call below is then a
	// no-op.
	var tr *obs.Tracer
	if *tracePath != "" || *timelinePath != "" || *debugAddr != "" {
		tr = obs.New("hottiles")
		tr.SetTimeline(tl)
		tr.SetConfig("matrix", flag.Arg(0))
		tr.SetConfig("arch", *archName)
		tr.SetConfig("strategy", *strategy)
		tr.SetConfig("kernel", *kernelName)
		tr.SetConfig("seed", fmt.Sprint(*seed))
		tr.SetConfig("ops", fmt.Sprint(*opsPerMAC))
	}

	a, err := hottiles.ParseArch(*archName)
	if err != nil {
		fail(err)
	}
	if *tileSize > 0 {
		a.TileH, a.TileW = *tileSize, *tileSize
	}
	if *k > 0 {
		a.K = *k
	}

	strat, err := hottiles.ParseStrategy(*strategy)
	if err != nil {
		fail(err)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	readSp := tr.Phase("read").Start(flag.Arg(0))
	m, err := hottiles.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	readSp.SetAttr("nnz", fmt.Sprint(m.NNZ()))
	readSp.End()
	fmt.Printf("matrix: %d rows, %d nonzeros, density %.2e\n", m.N, m.NNZ(), m.Density())

	kernel, err := hottiles.ParseKernel(*kernelName)
	if err != nil {
		fail(err)
	}
	if kernel == hottiles.KernelSpMV {
		a.K = 1
	}

	reorderSp := tr.Phase("reorder").Start(*reorderPass)
	switch *reorderPass {
	case "none":
	case "degree":
		m, err = hottiles.ApplyReorder(m, hottiles.ReorderDegreeSort(m))
	case "bfs":
		m, err = hottiles.ApplyReorder(m, hottiles.ReorderBFSCluster(m))
	case "random":
		m, err = hottiles.ApplyReorder(m, hottiles.ReorderRandom(m.N, *seed))
	default:
		fail(fmt.Errorf("unknown reordering pass %q", *reorderPass))
	}
	if err != nil {
		fail(err)
	}
	reorderSp.End()
	if *reorderPass != "none" {
		fmt.Printf("reordered with the %s pass\n", *reorderPass)
	}

	if *autotile {
		atSp := tr.Phase("autotile").Start("sweep")
		best, sweep, atErr := hottiles.AutoTileSize(m, &a, []int{64, 128, 256, 512, 1024}, *opsPerMAC)
		atSp.End()
		if atErr != nil {
			fail(atErr)
		}
		a.TileH, a.TileW = best, best
		fmt.Printf("auto tile sizing picked %d:", best)
		for _, r := range sweep {
			if r.Valid {
				fmt.Printf(" %d=%.3fms", r.TileSize, r.Predicted*1e3)
			}
		}
		fmt.Println()
	}

	var plan *hottiles.Plan
	if *loadPlan != "" {
		// The paper's train-once/infer-many workflow (§VI-B): reuse a
		// stored plan instead of re-running scan/model/partition.
		pf, openErr := os.Open(*loadPlan)
		if openErr != nil {
			fail(openErr)
		}
		var planErr error
		plan, planErr = hottiles.ReadPlan(pf)
		pf.Close()
		if planErr != nil {
			fail(planErr)
		}
		if plan.Grid.N != m.N || plan.Grid.NNZ() != m.NNZ() {
			fail(fmt.Errorf("stored plan is for a %d/%d matrix, input is %d/%d",
				plan.Grid.N, plan.Grid.NNZ(), m.N, m.NNZ()))
		}
		a.TileH, a.TileW = plan.Grid.TileH, plan.Grid.TileW
		fmt.Printf("loaded plan from %s\n", *loadPlan)
	} else {
		partSp := tr.Phase("partition").Start(*strategy)
		plan, err = hottiles.PartitionCtx(context.Background(), m, &a, hottiles.PartitionOptions{
			Strategy:  strat,
			OpsPerMAC: *opsPerMAC,
			Kernel:    kernel,
			Seed:      *seed,
		})
		if err != nil {
			fail(err)
		}
		partSp.SetAttr("tiles", fmt.Sprint(len(plan.Grid.Tiles)))
		partSp.End()
	}
	report(plan, &a)

	if *savePlan != "" {
		pf, err := os.Create(*savePlan)
		if err != nil {
			fail(err)
		}
		if err := hottiles.WritePlan(pf, plan); err != nil {
			pf.Close()
			fail(err)
		}
		if err := pf.Close(); err != nil {
			fail(err)
		}
		hashFile(tr, *savePlan)
		fmt.Printf("saved plan to %s\n", *savePlan)
	}

	if *outHot != "" {
		if err := writeSection(*outHot, hotSectionCOO(plan)); err != nil {
			fail(err)
		}
		hashFile(tr, *outHot)
	}
	if *outCold != "" {
		cold := plan.Cold
		if cold == nil && plan.ColdCSR != nil {
			cold = plan.ColdCSR.ToCOO()
		}
		if err := writeSection(*outCold, cold); err != nil {
			fail(err)
		}
		hashFile(tr, *outCold)
	}

	if *mapFile != "" {
		f, err := os.Create(*mapFile)
		if err != nil {
			fail(err)
		}
		if err := viz.TileMap(f, plan.Grid, plan.Partition.Hot, 512); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		hashFile(tr, *mapFile)
		fmt.Printf("wrote tile map to %s\n", *mapFile)
	}

	if *simulate {
		k := a.K
		if kernel == hottiles.KernelSpMV {
			k = 1
		}
		din := hottiles.NewDense(m.N, k)
		for i := range din.Data {
			din.Data[i] = 1
		}
		simSp := tr.Phase("simulate").Start(a.Name)
		res, err := hottiles.Simulate(plan, &a, din, hottiles.SimOptions{
			Serial:        plan.Partition.Serial && !a.AtomicRMW,
			Kernel:        kernel,
			Trace:         *bwTraceFile != "",
			Timeline:      tl,
			TimelineLabel: "sim",
		})
		simSp.End()
		if err != nil {
			fail(err)
		}
		if *bwTraceFile != "" {
			f, err := os.Create(*bwTraceFile)
			if err != nil {
				fail(err)
			}
			if err := viz.TraceStrip(f, res.Trace, a.BWBytes, 512, 48); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			hashFile(tr, *bwTraceFile)
			fmt.Printf("wrote bandwidth trace to %s\n", *bwTraceFile)
		}
		fmt.Printf("simulated runtime: %.3f ms (merge %.3f ms)\n", res.Time*1e3, res.MergeTime*1e3)
		fmt.Printf("bandwidth: %.1f GB/s; lines/nnz: %.2f; hot %.1f GFLOP/s, cold %.1f GFLOP/s\n",
			res.BandwidthUtil()/1e9, res.CacheLinesPerNNZ(m.NNZ()),
			res.HotGFLOPs(), res.ColdGFLOPs())
		switch kernel {
		case hottiles.KernelSDDMM:
			fmt.Printf("functional check: %d SDDMM values produced\n", len(res.SDDMM))
		default:
			want, err := hottiles.Reference(m, din)
			if err != nil {
				fail(err)
			}
			diff, _ := res.Output.MaxAbsDiff(want)
			fmt.Printf("functional check vs reference kernel: max |diff| = %.2e\n", diff)
		}
	}

	tr.Finish()
	if *tracePath != "" {
		if err := obs.WriteTrace(tr, *tracePath, os.Stdout); err != nil {
			fail(err)
		}
		if *tracePath != "-" {
			fmt.Printf("wrote run manifest to %s\n", *tracePath)
		}
	}
	if *timelinePath != "" {
		if err := obs.WriteTimeline(tl, *timelinePath, os.Stdout); err != nil {
			fail(err)
		}
		if *timelinePath != "-" {
			fmt.Printf("wrote timeline to %s (load in ui.perfetto.dev)\n", *timelinePath)
		}
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// hashFile records a produced artifact's content hash in the manifest. A
// file that cannot be read back is recorded as empty rather than failing the
// run: hashing is bookkeeping, not part of the pipeline.
func hashFile(tr *obs.Tracer, path string) {
	if tr == nil {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		data = nil
	}
	tr.AddOutput(path, data)
}

func report(plan *hottiles.Plan, a *hottiles.Arch) {
	g := plan.Grid
	hotTiles := 0
	for _, h := range plan.Partition.Hot {
		if h {
			hotTiles++
		}
	}
	nnz, frac := plan.Partition.HotNNZ(g)
	fmt.Printf("architecture: %s (tile %dx%d, K=%d)\n", a.Name, a.TileH, a.TileW, a.K)
	fmt.Printf("tiling: %dx%d grid, %d non-empty tiles\n", g.NumTR, g.NumTC, len(g.Tiles))
	fmt.Printf("partition: %d hot tiles (%d nonzeros, %.0f%%), heuristic %v, %s execution\n",
		hotTiles, nnz, frac*100, plan.Partition.Heuristic, mode(plan.Partition.Serial))
	fmt.Printf("predicted runtime: %.3f ms\n", plan.Partition.Predicted*1e3)
	if plan.Timing.Total() > 0 {
		fmt.Printf("preprocessing: scan %v, partition %v, formats %v+%v (HotTiles overhead %.0f%%)\n",
			plan.Timing.Scan, plan.Timing.Partition, plan.Timing.BaseFormat, plan.Timing.ExtraFormat,
			float64(plan.Timing.Overhead())/float64(plan.Timing.Total())*100)
	} else {
		fmt.Println("preprocessing: none (loaded plan)")
	}
}

func mode(serial bool) string {
	if serial {
		return "serial"
	}
	return "parallel"
}

func hotSectionCOO(plan *hottiles.Plan) *sparse.COO {
	m := sparse.NewCOO(plan.Grid.N, plan.Hot.NNZ())
	for _, b := range plan.Hot.Blocks {
		m.Rows = append(m.Rows, b.Rows...)
		m.Cols = append(m.Cols, b.Cols...)
		m.Vals = append(m.Vals, b.Vals...)
	}
	m.SortRowMajor()
	return m
}

func writeSection(path string, m *sparse.COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return hottiles.WriteMatrixMarket(f, m)
}

// logger is the CLI's diagnostic stream (stderr; stdout stays the report).
// main replaces it once the -log flag is parsed.
var logger *slog.Logger

// fail logs a fatal error as a structured line and exits. Before flag
// parsing installs the logger, fall back to plain stderr.
func fail(err error) {
	if logger == nil {
		fmt.Fprintln(os.Stderr, "hottiles:", err)
		os.Exit(1)
	}
	logger.LogAttrs(context.Background(), slog.LevelError, "hottiles.fatal", slog.String("err", err.Error()))
	os.Exit(1)
}
