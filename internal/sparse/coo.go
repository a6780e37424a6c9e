// Package sparse provides the sparse matrix substrate used throughout the
// HotTiles reproduction: coordinate (COO) and compressed sparse row (CSR)
// formats, conversions between them, and structural utilities (sorting,
// deduplication, transposition, validation).
//
// All matrices are square N×N as in the paper (SpMM multiplies a square
// sparse A by a dense N×K input). Values are float64 in the substrate;
// element sizes used for traffic accounting are configured separately in the
// model layer, so the same structural matrix can be "stored" as fp32 (the
// SPADE-Sextans experiments) or fp64 (the PIUMA experiments).
package sparse

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/par"
)

// COO is a coordinate-format sparse matrix. Nonzeros are stored as parallel
// slices of row index, column index, and value. A COO is row-ordered when
// nonzeros are sorted by (row, col); most of the pipeline requires
// row-ordered input and the constructors here establish it.
type COO struct {
	N    int // matrix dimension (square N×N)
	Rows []int32
	Cols []int32
	Vals []float64
}

// NewCOO returns an empty COO of dimension n with capacity for nnz nonzeros.
func NewCOO(n, nnz int) *COO {
	return &COO{
		N:    n,
		Rows: make([]int32, 0, nnz),
		Cols: make([]int32, 0, nnz),
		Vals: make([]float64, 0, nnz),
	}
}

// NNZ reports the number of stored nonzeros.
func (m *COO) NNZ() int { return len(m.Vals) }

// Append adds a nonzero. It does not maintain ordering; call SortRowMajor
// when done appending.
func (m *COO) Append(r, c int32, v float64) {
	m.Rows = append(m.Rows, r)
	m.Cols = append(m.Cols, c)
	m.Vals = append(m.Vals, v)
}

// At returns the nonzero at position i as (row, col, val).
func (m *COO) At(i int) (int32, int32, float64) {
	return m.Rows[i], m.Cols[i], m.Vals[i]
}

// Clone returns a deep copy of the matrix.
func (m *COO) Clone() *COO {
	c := &COO{
		N:    m.N,
		Rows: append([]int32(nil), m.Rows...),
		Cols: append([]int32(nil), m.Cols...),
		Vals: append([]float64(nil), m.Vals...),
	}
	return c
}

// SortRowMajor sorts nonzeros by (row, col), preserving the input order of
// duplicate coordinates (a stable sort, so DedupSum accumulates values in
// append order). Row-major ordering is what the paper calls "row-ordered
// nonzeros" (Figure 6) and is assumed by the tiler and the untiled
// traversal of the SPADE workers. It returns how many leading nonzeros it
// left in place: all of them when the matrix was already row-major, the
// sorted prefix when it merged a short unsorted rest into it, and 0 when
// it sorted everything.
//
// A matrix that is row-major up to a short rest — a sorted base with a
// few entries appended, at most 1/restShare of them — keeps its arrays:
// the rest is sorted on its own (sortAll) and merged into the prefix from
// the back, in place, a prefix entry going first on equal coordinates.
// Every prefix entry precedes every rest entry in the input, so that is
// exactly the stable order. Any other matrix goes to sortAll.
func (m *COO) SortRowMajor() (kept int) {
	nnz := m.NNZ()
	p := m.sortedPrefix()
	switch {
	case p == nnz:
		return nnz
	case nnz-p <= nnz/restShare:
		m.mergeRest(p)
		return p
	}
	m.sortAll()
	return 0
}

// restShare bounds the unsorted rest SortRowMajor merges instead of
// sorting everything: at most 1/restShare of the nonzeros. DESIGN.md §9
// has the measured crossover.
const restShare = 8

// sortedPrefix returns the length of the longest row-major prefix: the
// index of the first nonzero that sorts before its predecessor, or NNZ.
func (m *COO) sortedPrefix() int {
	for i := 1; i < m.NNZ(); i++ {
		if m.Rows[i] < m.Rows[i-1] ||
			(m.Rows[i] == m.Rows[i-1] && m.Cols[i] < m.Cols[i-1]) {
			return i
		}
	}
	return m.NNZ()
}

// mergeRest sorts the nonzeros from p on and merges them into the
// row-major prefix before p, in place, from the back: for each rest entry,
// last first, the prefix entries that sort after it — found by galloping
// back from the last unplaced one, then bisecting — move up as one block,
// and the rest entry goes just below them. A prefix entry with the same
// coordinates stays below it. Each block moves to slots at or above its
// own, and every slot it lands on is free: the rest was copied out by the
// sort, and the prefix entries there have already moved.
func (m *COO) mergeRest(p int) {
	rest := COO{N: m.N, Rows: m.Rows[p:], Cols: m.Cols[p:], Vals: m.Vals[p:]}
	rest.sortAll()     // into fresh arrays
	i, k := p, m.NNZ() // m[:i] is the unplaced prefix; slots from k up are filled
	for j := rest.NNZ() - 1; j >= 0; j-- {
		r, c := rest.Rows[j], rest.Cols[j]
		after := func(x int) bool { return m.Rows[x] > r || m.Rows[x] == r && m.Cols[x] > c }
		// Every entry in [hi, i) sorts after (r, c), none below lo does.
		lo, hi := 0, i
		for d := 1; d <= i; d *= 2 {
			if !after(i - d) {
				lo = i - d + 1
				break
			}
			hi = i - d
		}
		for lo < hi {
			if h := int(uint(lo+hi) >> 1); after(h) {
				hi = h
			} else {
				lo = h + 1
			}
		}
		k -= i - lo
		copy(m.Rows[k:], m.Rows[lo:i])
		copy(m.Cols[k:], m.Cols[lo:i])
		copy(m.Vals[k:], m.Vals[lo:i])
		i, k = lo, k-1
		m.Rows[k], m.Cols[k], m.Vals[k] = r, c, rest.Vals[j]
	}
}

// sortAll sorts every nonzero into fresh arrays, leaving the old ones as
// they were.
//
// The hot path packs (row, col, original index) into one uint64 key per
// nonzero and radix-sorts the keys on the par pool (sortPacked) — the
// index tiebreak makes the keys distinct, so the resulting permutation is
// exactly the stable (row, col) order for every worker count. Matrices too
// large for the packing fall back to sorting an index permutation with the
// same three-way comparator.
func (m *COO) sortAll() {
	nnz := m.NNZ()
	if nnz <= 1<<24 {
		// row:20 | col:20 | idx:24 — total order, stable by construction,
		// once the OR of every coordinate shows that each fits its field:
		// the sort may run on not-yet-validated input (a malformed
		// MatrixMarket file), where a coordinate can be anything.
		keys := make([]uint64, nnz)
		k := sortChunks(nnz)
		ors := make([]int32, k)
		eachChunk(nnz, k, func(c, lo, hi int) {
			or := int32(0)
			for i := lo; i < hi; i++ {
				r, col := m.Rows[i], m.Cols[i]
				or |= r | col
				keys[i] = uint64(r)<<44 | uint64(col)<<24 | uint64(i)
			}
			ors[c] = or
		})
		or := int32(0)
		for _, o := range ors {
			or |= o
		}
		if or >= 0 && or < 1<<20 {
			sortPacked(keys)
			// Row and column come back out of the key; only the value is
			// gathered through the permutation.
			rows := make([]int32, nnz)
			cols := make([]int32, nnz)
			vals := make([]float64, nnz)
			eachChunk(nnz, k, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					key := keys[i]
					rows[i] = int32(key >> 44)
					cols[i] = int32(key >> 24 & (1<<20 - 1))
					vals[i] = m.Vals[key&(1<<24-1)]
				}
			})
			m.Rows, m.Cols, m.Vals = rows, cols, vals
			return
		}
	}
	perm := make([]int32, nnz)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		switch {
		case m.Rows[a] != m.Rows[b]:
			return int(m.Rows[a]) - int(m.Rows[b])
		case m.Cols[a] != m.Cols[b]:
			return int(m.Cols[a]) - int(m.Cols[b])
		default:
			return int(a) - int(b)
		}
	})
	m.applyPerm(perm)
}

// applyPerm reorders the nonzeros so position i holds old entry perm[i].
func (m *COO) applyPerm(perm []int32) {
	rows := make([]int32, len(perm))
	cols := make([]int32, len(perm))
	vals := make([]float64, len(perm))
	for i, p := range perm {
		rows[i] = m.Rows[p]
		cols[i] = m.Cols[p]
		vals[i] = m.Vals[p]
	}
	m.Rows, m.Cols, m.Vals = rows, cols, vals
}

// sortPacked sorts packed (row:20 | col:20 | idx:24) keys ascending. The
// low 24 bits must already ascend in slice order (they are the append
// index), which lets every radix pass skip those bytes (see sortUint64).
//
// With one chunk (one worker, or fewer than 2·sortChunkMin keys) it is
// sortUint64. Otherwise it makes one most-significant-digit pass on the
// pool, on the highest byte any key occupies, through scatter. The
// scatter is stable (see Scatter), so each bucket's idx bytes still
// ascend, and every bucket is then radix-sorted on the pool from byte 3,
// as sortUint64 would, with its own range of keys as scratch. The keys
// are distinct, so any correct sort yields the same sequence: the result
// is identical for every worker count.
func sortPacked(keys []uint64) {
	n := len(keys)
	k := sortChunks(n)
	if k == 1 {
		sortUint64(keys, 3)
		return
	}
	ors := make([]uint64, k)
	eachChunk(n, k, func(c, lo, hi int) {
		or := uint64(0)
		for _, v := range keys[lo:hi] {
			or |= v
		}
		ors[c] = or
	})
	or := uint64(0)
	for _, o := range ors {
		or |= o
	}
	top := (bits.Len64(or) - 1) / 8
	if top < 3 {
		return // every row and column is 0: the keys are their idx, ascending
	}
	shift := uint(top * 8)
	auxp := radixAux.Get().(*[]uint64)
	if cap(*auxp) < n {
		*auxp = make([]uint64, n)
	}
	aux := (*auxp)[:n]
	start, _ := scatter(n, 256, k, func(lo, hi int, hist []int64) error {
		for _, v := range keys[lo:hi] {
			hist[v>>shift&0xff]++
		}
		return nil
	}, func(lo, hi int, next []int64) {
		for _, v := range keys[lo:hi] {
			b := v >> shift & 0xff
			aux[next[b]] = v
			next[b]++
		}
	})
	// The keys are all in aux now, so each bucket's range of keys is its
	// radix scratch.
	par.ForEach(256, func(b int) {
		lo, hi := start[b], start[b+1]
		radixSort(aux[lo:hi], keys[lo:hi], 3)
	})
	eachChunk(n, k, func(_, lo, hi int) { copy(keys[lo:hi], aux[lo:hi]) })
	radixAux.Put(auxp)
}

// sortUint64 sorts s ascending by the bytes from fromByte (0 = full keys)
// upward: an LSD radix sort for large inputs, falling back to the comparison
// sort below the size where radix wins. The keys here are distinct — every
// packed key carries its original index — so any correct ascending sort
// yields the identical sequence, and the pass count adapts by skipping bytes
// all keys share.
//
// A non-zero fromByte requires the input to already be ascending in its low
// 8·fromByte bits (the packed append index is). LSD radix passes are stable,
// so sorting only the high bytes of such input reproduces exactly the full
// lexicographic order — the skipped low-byte passes would have been identity
// permutations — at a fraction of the histogram and shuffle cost.
func sortUint64(s []uint64, fromByte int) {
	if len(s) < radixMin {
		slices.Sort(s)
		return
	}
	auxp := radixAux.Get().(*[]uint64)
	if cap(*auxp) < len(s) {
		*auxp = make([]uint64, len(s))
	}
	radixSort(s, (*auxp)[:len(s)], fromByte)
	radixAux.Put(auxp)
}

// radixMin is the length below which the comparison sort beats radix.
const radixMin = 256

// radixSort is sortUint64 with a caller-supplied scratch buffer aux of
// len(s); the sorted keys end in s.
func radixSort(s, aux []uint64, fromByte int) {
	if len(s) < radixMin {
		slices.Sort(s)
		return
	}
	var count [8][256]int
	if fromByte == 3 { // packed (row, col, idx) keys: idx bytes pre-sorted
		for _, v := range s {
			count[3][(v>>24)&0xff]++
			count[4][(v>>32)&0xff]++
			count[5][(v>>40)&0xff]++
			count[6][(v>>48)&0xff]++
			count[7][(v>>56)&0xff]++
		}
	} else {
		for _, v := range s {
			count[0][v&0xff]++
			count[1][(v>>8)&0xff]++
			count[2][(v>>16)&0xff]++
			count[3][(v>>24)&0xff]++
			count[4][(v>>32)&0xff]++
			count[5][(v>>40)&0xff]++
			count[6][(v>>48)&0xff]++
			count[7][(v>>56)&0xff]++
		}
	}
	from, to := s, aux
	for pass := fromByte; pass < 8; pass++ {
		shift := uint(pass * 8)
		c := &count[pass]
		// All keys share this byte: the pass is the identity, skip it.
		if c[(from[0]>>shift)&0xff] == len(s) {
			continue
		}
		offs := 0
		for b := 0; b < 256; b++ {
			n := c[b]
			c[b] = offs
			offs += n
		}
		for _, v := range from {
			b := (v >> shift) & 0xff
			to[c[b]] = v
			c[b]++
		}
		from, to = to, from
	}
	if &from[0] != &s[0] {
		copy(s, from)
	}
}

// radixAux pools the scatter buffer of sortUint64 and of sortPacked's
// MSD pass: sweeps radix-sort many matrices back to back, and every
// executed pass scatters a full permutation into the buffer before
// anything reads it, so reuse (including stale contents) is invisible to
// the result.
var radixAux = sync.Pool{New: func() any { return new([]uint64) }}

// IsRowMajor reports whether the nonzeros are sorted by (row, col).
func (m *COO) IsRowMajor() bool { return m.sortedPrefix() == m.NNZ() }

// DedupSum collapses duplicate (row, col) entries by summing their values.
// The matrix must be row-major sorted; the result remains row-major.
func (m *COO) DedupSum() {
	if m.NNZ() == 0 {
		return
	}
	out := 0
	for i := 1; i < m.NNZ(); i++ {
		if m.Rows[i] == m.Rows[out] && m.Cols[i] == m.Cols[out] {
			m.Vals[out] += m.Vals[i]
			continue
		}
		out++
		m.Rows[out] = m.Rows[i]
		m.Cols[out] = m.Cols[i]
		m.Vals[out] = m.Vals[i]
	}
	m.Rows = m.Rows[:out+1]
	m.Cols = m.Cols[:out+1]
	m.Vals = m.Vals[:out+1]
}

// Transpose returns the transpose as a new row-major COO.
func (m *COO) Transpose() *COO {
	t := NewCOO(m.N, m.NNZ())
	t.Rows = append(t.Rows, m.Cols...)
	t.Cols = append(t.Cols, m.Rows...)
	t.Vals = append(t.Vals, m.Vals...)
	t.SortRowMajor()
	return t
}

// Validate checks structural invariants: indices in range, row-major order,
// and no duplicate coordinates. It returns a descriptive error on the first
// violation found.
func (m *COO) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("sparse: non-positive dimension %d", m.N)
	}
	if len(m.Rows) != len(m.Cols) || len(m.Rows) != len(m.Vals) {
		return fmt.Errorf("sparse: ragged COO slices: rows=%d cols=%d vals=%d",
			len(m.Rows), len(m.Cols), len(m.Vals))
	}
	for i := 0; i < m.NNZ(); i++ {
		if m.Rows[i] < 0 || int(m.Rows[i]) >= m.N || m.Cols[i] < 0 || int(m.Cols[i]) >= m.N {
			return fmt.Errorf("sparse: nonzero %d at (%d,%d) out of range for N=%d",
				i, m.Rows[i], m.Cols[i], m.N)
		}
		if i > 0 {
			switch {
			case m.Rows[i] < m.Rows[i-1],
				m.Rows[i] == m.Rows[i-1] && m.Cols[i] < m.Cols[i-1]:
				return fmt.Errorf("sparse: nonzeros not row-major at index %d", i)
			case m.Rows[i] == m.Rows[i-1] && m.Cols[i] == m.Cols[i-1]:
				return fmt.Errorf("sparse: duplicate coordinate (%d,%d) at index %d",
					m.Rows[i], m.Cols[i], i)
			}
		}
	}
	return nil
}

// Density returns nnz / N².
func (m *COO) Density() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.N) * float64(m.N))
}

// RowNNZ returns the number of nonzeros in each row.
func (m *COO) RowNNZ() []int {
	counts := make([]int, m.N)
	for _, r := range m.Rows {
		counts[r]++
	}
	return counts
}
