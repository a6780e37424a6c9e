// Package dense provides the dense-matrix substrate for SpMM: the N×K input
// (Din) and output (Dout) matrices, reference (golden) SpMM and gSpMM
// kernels used to verify every partitioned/simulated execution, and the
// output-buffer merge that the heterogeneous architectures perform when hot
// and cold workers write private buffers (paper §V-A).
package dense

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// Matrix is a dense row-major N×K matrix.
type Matrix struct {
	N, K int
	Data []float64 // len N*K, row-major
}

// NewMatrix returns an N×K zero matrix.
func NewMatrix(n, k int) *Matrix {
	return &Matrix{N: n, K: k, Data: make([]float64, n*k)}
}

// NewFilled returns an N×K matrix with every element set to v. A +0 fill
// is the allocation's own zeroing and costs no second pass.
func NewFilled(n, k int, v float64) *Matrix {
	m := NewMatrix(n, k)
	if math.Float64bits(v) != 0 {
		for i := range m.Data {
			m.Data[i] = v
		}
	}
	return m
}

// NewRandom returns an N×K matrix with entries drawn uniformly from [-1, 1)
// using the given deterministic source.
func NewRandom(rng *rand.Rand, n, k int) *Matrix {
	m := NewMatrix(n, k)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// Row returns row r as a sub-slice (no copy).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.K : (r+1)*m.K] }

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.K+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.K+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{N: m.N, K: m.K, Data: append([]float64(nil), m.Data...)}
}

// Fill sets every element to v (used to initialize gSpMM accumulators to the
// semiring's additive identity).
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether two matrices have identical shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.N != o.N || m.K != o.K {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether two matrices agree elementwise within tol,
// treating NaN≠anything. Used when summation order differs between the
// reference and a partitioned execution.
func (m *Matrix) AlmostEqual(o *Matrix, tol float64) bool {
	if m.N != o.N || m.K != o.K {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference.
func (m *Matrix) MaxAbsDiff(o *Matrix) (float64, error) {
	if m.N != o.N || m.K != o.K {
		return 0, fmt.Errorf("dense: shape mismatch %dx%d vs %dx%d", m.N, m.K, o.N, o.K)
	}
	maxDiff := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - o.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff, nil
}

// SpMM computes Dout += A · Din with the plain arithmetic semiring; Dout
// must be pre-sized N×K and is accumulated into (matching the paper's
// accumulate-on-top-of-output-row semantics, Fig 1).
//
// When A is row-sorted and large enough, the nonzero loop fans out over the
// par pool in row-boundary-aligned panels (see rowCuts); the output is
// bit-identical to the serial loop for any worker count.
func SpMM(a *sparse.COO, din, dout *Matrix) error {
	if din.N != a.N || dout.N != a.N || din.K != dout.K {
		return fmt.Errorf("dense: SpMM shape mismatch: A %d, Din %dx%d, Dout %dx%d",
			a.N, din.N, din.K, dout.N, dout.K)
	}
	if cuts := rowCuts(a.Rows, a.NNZ()*din.K); cuts != nil {
		par.ForEach(len(cuts)-1, func(p int) {
			spmmRange(a, din, dout, cuts[p], cuts[p+1])
		})
		return nil
	}
	spmmRange(a, din, dout, 0, a.NNZ())
	return nil
}

// GSpMM computes Dout ⊕= A ⊗ Din over an arbitrary semiring. Callers are
// responsible for initializing Dout to the semiring's additive identity
// (Fill(s.AddIdentity)) when a fresh product rather than an accumulation is
// wanted.
// Like SpMM, row-sorted inputs fan out over row-boundary-aligned panels with
// a bit-identical result (semiring Add runs per row in serial order).
func GSpMM(a *sparse.COO, din, dout *Matrix, s semiring.Semiring) error {
	if din.N != a.N || dout.N != a.N || din.K != dout.K {
		return fmt.Errorf("dense: GSpMM shape mismatch: A %d, Din %dx%d, Dout %dx%d",
			a.N, din.N, din.K, dout.N, dout.K)
	}
	if cuts := rowCuts(a.Rows, a.NNZ()*din.K); cuts != nil {
		par.ForEach(len(cuts)-1, func(p int) {
			gspmmRange(a, din, dout, s, cuts[p], cuts[p+1])
		})
		return nil
	}
	gspmmRange(a, din, dout, s, 0, a.NNZ())
	return nil
}

// SpMMCSR computes Dout += A · Din from a CSR matrix; functionally identical
// to SpMM and used to cross-check format conversions. CSR rows are disjoint
// output slices by construction, so large inputs row-split over the par pool
// with a bit-identical result.
func SpMMCSR(a *sparse.CSR, din, dout *Matrix) error {
	if din.N != a.N || dout.N != a.N || din.K != dout.K {
		return fmt.Errorf("dense: SpMMCSR shape mismatch")
	}
	if par.Workers() > 1 && a.NNZ()*din.K >= parMinWork {
		par.Chunks(a.N, func(lo, hi int) {
			spmmCSRRows(a, din, dout, lo, hi)
		})
		return nil
	}
	spmmCSRRows(a, din, dout, 0, a.N)
	return nil
}

// Merge adds src into dst elementwise: the Merger module of the
// SPADE-Sextans architecture (paper §VI-A) combining the two private output
// buffers after parallel heterogeneous execution.
func Merge(dst, src *Matrix) error {
	if dst.N != src.N || dst.K != src.K {
		return fmt.Errorf("dense: merge shape mismatch %dx%d vs %dx%d", dst.N, dst.K, src.N, src.K)
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
	return nil
}
