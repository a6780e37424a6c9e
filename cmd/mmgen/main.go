// Command mmgen synthesizes the benchmark matrices of the paper's Tables V
// and VIII (or generic generator outputs) and writes them in MatrixMarket
// format, so the hottiles CLI and external tools can consume them.
//
// Usage:
//
//	mmgen -bench pap -scale 64 -o pap.mtx          # a Table V/VIII mimic
//	mmgen -gen powerlaw -n 100000 -deg 16 -o g.mtx # a raw generator
//	mmgen -list                                    # available benchmarks
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"

	"repro/internal/gen"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func main() {
	bench := flag.String("bench", "", "benchmark short name (Table V/VIII mimic)")
	generator := flag.String("gen", "", "raw generator: uniform|rmat|powerlaw|mesh2d|stencil3d|banded|community|mycielskian|denseblocks")
	n := flag.Int("n", 65536, "matrix dimension for raw generators")
	deg := flag.Float64("deg", 16, "average nonzeros per row for raw generators")
	gamma := flag.Float64("gamma", 2.1, "power-law exponent")
	scale := flag.Int("scale", 64, "benchmark scale divisor")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list available benchmarks")
	cli := obs.NewCLI(flag.CommandLine, "mmgen", false)
	flag.Parse()
	cli.Start()

	if *list {
		fmt.Println("Table V (sparse suite):")
		for _, b := range gen.Benchmarks() {
			fmt.Printf("  %-4s %-26s %s\n", b.Short, b.Name, b.Domain)
		}
		fmt.Println("Table VIII (denser suite):")
		for _, b := range gen.DenseBenchmarks() {
			fmt.Printf("  %-4s %-26s %s\n", b.Short, b.Name, b.Domain)
		}
		cli.Finish()
		return
	}

	m, err := build(*bench, *generator, *n, *deg, *gamma, *scale, *seed)
	if err != nil {
		cli.Fail(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cli.Fail(err)
		}
		w = f
	}
	if err := mm.Write(w, m); err != nil {
		cli.Fail(err)
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			cli.Fail(err)
		}
	}
	cli.Logger.LogAttrs(context.Background(), slog.LevelInfo, "mmgen.generated",
		slog.Int("rows", m.N), slog.Int("nnz", m.NNZ()),
		slog.Float64("density", m.Density()))
	cli.Finish()
}

func build(bench, generator string, n int, deg, gamma float64, scale int, seed int64) (*sparse.COO, error) {
	switch {
	case bench != "":
		b, ok := gen.ByShort(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (try -list)", bench)
		}
		return b.Build(seed, scale), nil
	case generator != "":
		rng := rand.New(rand.NewSource(seed))
		nnz := int(deg * float64(n))
		switch generator {
		case "uniform":
			return gen.Uniform(rng, n, nnz), nil
		case "rmat":
			logn := int(math.Round(math.Log2(float64(n))))
			return gen.RMAT(rng, logn, int(deg)), nil
		case "powerlaw":
			return gen.PowerLaw(rng, n, deg, gamma), nil
		case "mesh2d":
			side := int(math.Sqrt(float64(n)))
			return gen.Mesh2D(side, side), nil
		case "stencil3d":
			side := int(math.Cbrt(float64(n)))
			return gen.Stencil3D(side, side, side, 1), nil
		case "banded":
			return gen.Banded(rng, n, n/64, int(deg), 0.02), nil
		case "community":
			return gen.BlockCommunity(rng, n, 96, 0.6, deg/4), nil
		case "mycielskian":
			k := 2 + int(math.Round(math.Log2(float64(n+1)/3)))
			return gen.Mycielskian(k), nil
		case "denseblocks":
			return gen.DenseBlocks(rng, n, 8, deg/float64(n)), nil
		default:
			return nil, fmt.Errorf("unknown generator %q", generator)
		}
	default:
		return nil, fmt.Errorf("one of -bench or -gen is required")
	}
}
