package dense

import (
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// parMinWork is the minimum kernel size — multiply-accumulates, nnz·K — at
// which the row-panel fan-out engages. Below it the per-panel dispatch cost
// outweighs the loop itself, so small inputs keep the plain serial path.
const parMinWork = 1 << 14

// rowCuts splits a row-sorted nonzero array into row-boundary-aligned panels
// for the par pool: cuts[p] .. cuts[p+1] is panel p's nonzero range, and no
// row straddles a cut. Because each output row is touched by exactly one
// panel and panel-internal order equals global order, the parallel kernels
// accumulate every row in precisely the serial floating-point order — the
// result is bit-identical for any worker count (the internal/par determinism
// contract).
//
// Returns nil — caller runs serial — when the pool has one worker, the work
// is below parMinWork, the rows are not sorted (COO order is unconstrained;
// the O(nnz) pre-check is the price of the guarantee), or the row structure
// admits fewer than two panels (one giant row).
func rowCuts(rows []int32, work int) []int {
	if par.Workers() < 2 || work < parMinWork {
		return nil
	}
	n := len(rows)
	for i := 1; i < n; i++ {
		if rows[i] < rows[i-1] {
			return nil
		}
	}
	k := par.Workers() * 4 // oversubscribe: uneven rows still balance
	if k > n {
		k = n
	}
	cuts := make([]int, 1, k+1)
	for p := 1; p < k; p++ {
		b := p * n / k
		if b <= cuts[len(cuts)-1] {
			continue
		}
		for b < n && rows[b] == rows[b-1] {
			b++
		}
		if b > cuts[len(cuts)-1] && b < n {
			cuts = append(cuts, b)
		}
	}
	if len(cuts) < 2 {
		return nil
	}
	return append(cuts, n)
}

// spmmRange is the SpMM inner loop over the nonzero range [lo, hi).
func spmmRange(a *sparse.COO, din, dout *Matrix, lo, hi int) {
	k := din.K
	for i := lo; i < hi; i++ {
		c := int(a.Cols[i]) * k
		r := int(a.Rows[i]) * k
		v := a.Vals[i]
		in := din.Data[c : c+k]
		out := dout.Data[r : r+k]
		for j := 0; j < k; j++ {
			out[j] += v * in[j]
		}
	}
}

// gspmmRange is the semiring gSpMM loop over [lo, hi): one row kernel call
// per nonzero.
func gspmmRange(a *sparse.COO, din, dout *Matrix, s semiring.Semiring, lo, hi int) {
	k := din.K
	for i := lo; i < hi; i++ {
		c := int(a.Cols[i]) * k
		r := int(a.Rows[i]) * k
		s.MulAddRow(dout.Data[r:r+k], din.Data[c:c+k], a.Vals[i])
	}
}

// spmvRange is the SpMV inner loop over [lo, hi).
func spmvRange(a *sparse.COO, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[a.Rows[i]] += a.Vals[i] * x[a.Cols[i]]
	}
}

// spmmCSRRows is the CSR SpMM inner loop over the row range [lo, hi); CSR
// rows are disjoint output slices by construction, so any row split is
// deterministic.
func spmmCSRRows(a *sparse.CSR, din, dout *Matrix, lo, hi int) {
	k := din.K
	for r := lo; r < hi; r++ {
		out := dout.Data[r*k : r*k+k]
		cols, vals := a.Row(r)
		for i, c := range cols {
			v := vals[i]
			in := din.Data[int(c)*k : int(c)*k+k]
			for j := 0; j < k; j++ {
				out[j] += v * in[j]
			}
		}
	}
}

// sddmmRange is the SDDMM inner loop over the nonzero range [lo, hi); every
// nonzero writes only its own output slot, so any split is deterministic.
func sddmmRange(a *sparse.COO, u, v *Matrix, out []float64, lo, hi int) {
	k := u.K
	for i := lo; i < hi; i++ {
		ur := u.Data[int(a.Rows[i])*k : int(a.Rows[i])*k+k]
		vc := v.Data[int(a.Cols[i])*k : int(a.Cols[i])*k+k]
		dot := 0.0
		for j := 0; j < k; j++ {
			dot += ur[j] * vc[j]
		}
		out[i] = a.Vals[i] * dot
	}
}
