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
	cli := obs.NewCLI(flag.CommandLine, "hottiles", true)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hottiles [flags] matrix.mtx")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cli.Start()
	par.SetTimeline(cli.Timeline)
	tr := cli.Tracer
	tr.SetConfig("matrix", flag.Arg(0))
	tr.SetConfig("arch", *archName)
	tr.SetConfig("strategy", *strategy)
	tr.SetConfig("kernel", *kernelName)
	tr.SetConfig("seed", fmt.Sprint(*seed))
	tr.SetConfig("ops", fmt.Sprint(*opsPerMAC))

	a, err := hottiles.ParseArch(*archName)
	if err != nil {
		cli.Fail(err)
	}
	if *tileSize > 0 {
		a.TileH, a.TileW = *tileSize, *tileSize
	}
	if *k > 0 {
		a.K = *k
	}

	strat, err := hottiles.ParseStrategy(*strategy)
	if err != nil {
		cli.Fail(err)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		cli.Fail(err)
	}
	readSp := tr.Phase("read").Start(flag.Arg(0))
	m, err := hottiles.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		cli.Fail(err)
	}
	readSp.SetAttr("nnz", fmt.Sprint(m.NNZ()))
	readSp.End()
	fmt.Printf("matrix: %d rows, %d nonzeros, density %.2e\n", m.N, m.NNZ(), m.Density())

	kernel, err := hottiles.ParseKernel(*kernelName)
	if err != nil {
		cli.Fail(err)
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
		cli.Fail(fmt.Errorf("unknown reordering pass %q", *reorderPass))
	}
	if err != nil {
		cli.Fail(err)
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
			cli.Fail(atErr)
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
			cli.Fail(openErr)
		}
		var planErr error
		plan, planErr = hottiles.ReadPlan(pf)
		pf.Close()
		if planErr != nil {
			cli.Fail(planErr)
		}
		if plan.Grid.N != m.N || plan.Grid.NNZ() != m.NNZ() {
			cli.Fail(fmt.Errorf("stored plan is for a %d/%d matrix, input is %d/%d",
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
			cli.Fail(err)
		}
		partSp.SetAttr("tiles", fmt.Sprint(len(plan.Grid.Tiles)))
		partSp.End()
	}
	// The sections are built only for the files that hold them: the
	// plan, the tile map and the simulator need the grid and the decision.
	var sec *hottiles.Sections
	if *outHot != "" || *outCold != "" {
		sec = hottiles.Formats(plan)
	}
	report(plan, &a, sec != nil)

	if *savePlan != "" {
		pf, err := os.Create(*savePlan)
		if err != nil {
			cli.Fail(err)
		}
		if err := hottiles.WritePlan(pf, plan); err != nil {
			pf.Close()
			cli.Fail(err)
		}
		if err := pf.Close(); err != nil {
			cli.Fail(err)
		}
		hashFile(tr, *savePlan)
		fmt.Printf("saved plan to %s\n", *savePlan)
	}

	if *outHot != "" {
		if err := writeSection(*outHot, hotSectionCOO(sec)); err != nil {
			cli.Fail(err)
		}
		hashFile(tr, *outHot)
	}
	if *outCold != "" {
		cold := sec.Cold
		if cold == nil {
			cold = sec.ColdCSR.ToCOO()
		}
		if err := writeSection(*outCold, cold); err != nil {
			cli.Fail(err)
		}
		hashFile(tr, *outCold)
	}

	if *mapFile != "" {
		f, err := os.Create(*mapFile)
		if err != nil {
			cli.Fail(err)
		}
		if err := viz.TileMap(f, plan.Grid, plan.Partition.Hot, 512); err != nil {
			f.Close()
			cli.Fail(err)
		}
		if err := f.Close(); err != nil {
			cli.Fail(err)
		}
		hashFile(tr, *mapFile)
		fmt.Printf("wrote tile map to %s\n", *mapFile)
	}

	if *simulate {
		din := hottiles.NewDense(m.N, a.K)
		for i := range din.Data {
			din.Data[i] = 1
		}
		simSp := tr.Phase("simulate").Start(a.Name)
		res, err := hottiles.Simulate(plan, &a, din, hottiles.SimOptions{
			Serial:        plan.Partition.Serial && !a.AtomicRMW,
			Kernel:        kernel,
			Trace:         *bwTraceFile != "",
			Timeline:      cli.Timeline,
			TimelineLabel: "sim",
		})
		simSp.End()
		if err != nil {
			cli.Fail(err)
		}
		if *bwTraceFile != "" {
			f, err := os.Create(*bwTraceFile)
			if err != nil {
				cli.Fail(err)
			}
			if err := viz.TraceStrip(f, res.Trace, a.BWBytes, 512, 48); err != nil {
				f.Close()
				cli.Fail(err)
			}
			if err := f.Close(); err != nil {
				cli.Fail(err)
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
				cli.Fail(err)
			}
			diff, _ := res.Output.MaxAbsDiff(want)
			fmt.Printf("functional check vs reference kernel: max |diff| = %.2e\n", diff)
		}
	}

	cli.Finish()
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

// report prints the plan and the preprocessing stages that ran: none for
// a loaded plan, and the two format stages only when the sections were
// built.
func report(plan *hottiles.Plan, a *hottiles.Arch, formats bool) {
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
	t := plan.Timing
	switch {
	case t.Scan == 0 && !formats:
		fmt.Println("preprocessing: none (loaded plan)")
	case t.Scan == 0:
		fmt.Printf("preprocessing: formats %v+%v (loaded plan)\n", t.BaseFormat, t.ExtraFormat)
	case !formats:
		fmt.Printf("preprocessing: scan %v, partition %v\n", t.Scan, t.Partition)
	default:
		fmt.Printf("preprocessing: scan %v, partition %v, formats %v+%v (HotTiles overhead %.0f%%)\n",
			t.Scan, t.Partition, t.BaseFormat, t.ExtraFormat,
			float64(t.Overhead())/float64(t.Total())*100)
	}
}

func mode(serial bool) string {
	if serial {
		return "serial"
	}
	return "parallel"
}

func hotSectionCOO(sec *hottiles.Sections) *sparse.COO {
	m := sparse.NewCOO(sec.Hot.N, sec.Hot.NNZ())
	for _, b := range sec.Hot.Blocks {
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
	if err := hottiles.WriteMatrixMarket(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
