package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/mm"
)

// class is one structural class of the serving inputs: a matrix from
// internal/gen's suite mimics at a scale chosen so that each class costs
// about the same per plan build. With unequal costs, which class a slow
// request happened to carry moves the percentiles from run to run.
type class struct {
	short string
	scale int
}

var classes = []class{
	{"pap", 400}, // community blocks
	{"kro", 256}, // RMAT
	{"myc", 64},  // near-dense
	{"del", 256}, // mesh
}

// smokeScale multiplies every class scale in -smoke runs, shrinking each
// matrix to a few thousand nonzeros.
const smokeScale = 16

// extraEntries is the number of random entries appended to a class's base
// matrix to make one request body: enough to give every body its own
// content hash, too few to change its structure class.
const extraEntries = 64

// Body streams keep the timed plan requests apart from the GNN bodies.
const (
	planStream = iota
	gnnStream
)

// input is the base matrix of one class, kept as MatrixMarket entry lines
// so a request body is a copy plus a few appended lines.
type input struct {
	class     string
	rows, nnz int
	entries   []byte
}

// inputSet holds one input per class; body index i belongs to class i mod
// len(classes).
type inputSet []*input

// baseSeed is the generator seed of the base matrices. It is fixed, not
// the run's seed: the pap and kro generators draw community sizes and
// edges from it, and the plan-build cost moved by ±8% between seeds, which
// would hide the changes the benchmark is meant to show. The run's seed
// picks each body's appended entries instead.
const baseSeed = 1

// makeInputs generates every class's base matrix.
func makeInputs(smoke bool) (inputSet, error) {
	set := make(inputSet, len(classes))
	for i, c := range classes {
		b, ok := gen.ByShort(c.short)
		if !ok {
			return nil, fmt.Errorf("no generator for class %q", c.short)
		}
		scale := c.scale
		if smoke {
			scale *= smokeScale
		}
		m := b.Build(baseSeed, scale)
		var buf bytes.Buffer
		if err := mm.Write(&buf, m); err != nil {
			return nil, fmt.Errorf("render %s: %w", c.short, err)
		}
		// Drop the header and size lines: appendBody writes its own, with
		// the appended entries counted.
		text := buf.Bytes()
		for k := 0; k < 2; k++ {
			text = text[bytes.IndexByte(text, '\n')+1:]
		}
		set[i] = &input{class: c.short, rows: m.N, nnz: m.NNZ(), entries: text}
	}
	return set, nil
}

// body appends body idx of stream to dst: its class's base matrix plus
// extraEntries random entries drawn from (seed, stream, idx).
func (s inputSet) body(dst []byte, seed int64, stream, idx int) []byte {
	in := s[idx%len(s)]
	dst = append(dst, "%%MatrixMarket matrix coordinate real general\n"...)
	dst = fmt.Appendf(dst, "%d %d %d\n", in.rows, in.rows, in.nnz+extraEntries)
	dst = append(dst, in.entries...)
	rng := rand.New(rand.NewSource(bodySeed(seed, stream, idx)))
	for k := 0; k < extraEntries; k++ {
		dst = fmt.Appendf(dst, "%d %d %g\n", rng.Intn(in.rows)+1, rng.Intn(in.rows)+1, rng.Float64()+0.5)
	}
	return dst
}

// bodySeed mixes (seed, stream, idx) into one generator seed (splitmix64
// finalizer), so neighbouring indices draw unrelated entries.
func bodySeed(seed int64, stream, idx int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<40 ^ uint64(idx)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
