// Package mm reads and writes the MatrixMarket exchange format (Boisvert et
// al.), the on-disk format the HotTiles host software ingests (paper
// §VI-B). It supports the coordinate layout with real, integer, and pattern
// fields, and general/symmetric/skew-symmetric symmetry. Only square
// matrices are accepted, matching the paper's SpMM setting.
package mm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/par"
	"repro/internal/sparse"
)

// Symmetry describes the MatrixMarket symmetry qualifier.
type Symmetry int

const (
	General Symmetry = iota
	Symmetric
	SkewSymmetric
)

func (s Symmetry) String() string {
	switch s {
	case Symmetric:
		return "symmetric"
	case SkewSymmetric:
		return "skew-symmetric"
	default:
		return "general"
	}
}

// header is the parsed "%%MatrixMarket ..." banner.
type header struct {
	object, format, field string
	symmetry              Symmetry
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("mm: malformed banner %q", line)
	}
	h := header{object: fields[1], format: fields[2], field: fields[3]}
	if h.object != "matrix" {
		return header{}, fmt.Errorf("mm: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return header{}, fmt.Errorf("mm: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return header{}, fmt.Errorf("mm: unsupported field %q", h.field)
	}
	switch fields[4] {
	case "general":
		h.symmetry = General
	case "symmetric":
		h.symmetry = Symmetric
	case "skew-symmetric":
		h.symmetry = SkewSymmetric
	default:
		return header{}, fmt.Errorf("mm: unsupported symmetry %q", fields[4])
	}
	return h, nil
}

// Read parses a MatrixMarket coordinate stream: it reads r to the end and
// hands the bytes to Parse. In-memory readers that report their length
// (bytes.Reader, strings.Reader, bytes.Buffer) are read into one buffer of
// that size.
func Read(r io.Reader) (*sparse.COO, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("mm: reading input: %w", err)
	}
	return Parse(buf.Bytes())
}

// Parse parses an in-memory MatrixMarket coordinate matrix into a
// row-major, deduplicated COO. Symmetric and skew-symmetric inputs are
// expanded to their full general form. Pattern matrices get value 1 for
// every entry.
//
// The parse allocates nothing per line. An entry line is read in one
// forward pass over its bytes, its value converted with one table
// multiply (toFloat) when it has at most 19 significant digits, a decimal
// exponent in [-19, 19], and the product settles its rounding; any other
// line — comments, other value syntax, every error — is split into
// fields, and its value token reaches strconv.ParseFloat as a zero-copy
// string view. Both give the correctly rounded value, so values are
// bit-exact. Whitespace is the ASCII set
// (space, \t, \v, \f, \r); fields past the ones an entry needs, and lines
// after the nnz-th entry, are ignored. Returned errors never alias data.
//
// The entry section is scanned in Chunks(len(data)) chunks on the par
// pool. The result — matrix or error text — is the same for every chunk
// count: see parse.
func Parse(data []byte) (*sparse.COO, error) {
	m, _, err := ParseStats(data)
	return m, err
}

// Stats reports how Parse read an input.
type Stats struct {
	Chunks int // the entry section's chunks: Chunks(len(data))
	// SortedPrefix is how many nonzeros the row-major sort left in place
	// (sparse.COO.SortRowMajor): all of them for a row-major input, the
	// sorted prefix when a short unsorted rest was merged into it, 0 when
	// everything was sorted. It is 0 when the parse fails.
	SortedPrefix int
}

// ParseStats is Parse that also reports how the parse went.
func ParseStats(data []byte) (*sparse.COO, Stats, error) {
	st := Stats{Chunks: Chunks(len(data))}
	m, kept, err := parse(data, st.Chunks)
	st.SortedPrefix = kept
	return m, st, err
}

// minChunk is the fewest input bytes per parse chunk: a smaller chunk
// scans faster than the pool hands it out.
const minChunk = 256 << 10

// Chunks reports how many chunks Parse splits an input of size bytes into:
// one per par worker, none under minChunk bytes. An input under twice
// minChunk is one chunk, scanned on the calling goroutine.
func Chunks(size int) int { return max(1, min(par.Workers(), size/minChunk)) }

// parse is Parse with the entry section cut into k chunks at '\n'
// boundaries. The steps:
//
//  1. Each chunk counts its lines on the pool. A chunk holds at most one
//     entry per line, one per four bytes ("1 1\n"), and nnz in all, and
//     twice as many nonzeros when symmetric; one allocation sized by the
//     sum of these bounds gives every chunk its own window. A size line
//     claiming more entries than the input can hold does not size it.
//  2. Each chunk is scanned on the pool as if its first entry were entry
//     0, stopping after nnz entries or at its first bad line.
//  3. One serial pass in chunk order adds up the entry counts. The chunk
//     holding the nnz-th entry or the lowest-numbered bad line is scanned
//     again if entries precede it, now knowing its first entry's number,
//     so it stops exactly at the nnz-th entry and numbers its error as a
//     one-chunk parse would. Lines past the nnz-th entry, garbage
//     included, are never reported.
//  4. The windows are closed up in order and the matrix is sorted and
//     deduplicated. kept is what the sort left in place. The result needs
//     no validation pass: every entry was range-checked as it was read,
//     and the sort and DedupSum leave it row-major without duplicates.
//
// With k = 1 the first scan is already exact and nothing moves: that is
// the serial parse.
func parse(data []byte, k int) (m *sparse.COO, kept int, err error) {
	sc := lineScanner{rest: data}
	banner, ok := sc.next()
	if !ok {
		return nil, 0, fmt.Errorf("mm: empty input: %w", io.ErrUnexpectedEOF)
	}
	h, err := parseHeader(string(banner))
	if err != nil {
		return nil, 0, err
	}
	sizeLine, ok := sc.nextContent()
	if !ok {
		return nil, 0, fmt.Errorf("mm: missing size line: %w", io.ErrUnexpectedEOF)
	}
	n, nnz, err := parseSize(sizeLine)
	if err != nil {
		return nil, 0, err
	}
	f := entryFormat{n: n, pattern: h.field == "pattern", symmetry: h.symmetry}

	chunks := split(sc.rest, k)
	// slots holds each chunk's line count until the bound below replaces it.
	par.ForEach(len(chunks), func(i int) { chunks[i].slots = chunks[i].lines() })
	mult := 1
	if f.symmetry != General {
		mult = 2 // a mirrored entry stores two nonzeros
	}
	total := 0
	for i := range chunks {
		c := &chunks[i]
		c.base = total
		c.slots = mult * min(c.slots, len(c.data)/4+1, nnz)
		total += c.slots
	}
	rows := make([]int32, total)
	cols := make([]int32, total)
	vals := make([]float64, total)
	for i := range chunks {
		c := &chunks[i]
		hi := c.base + c.slots
		c.rows, c.cols, c.vals = rows[c.base:hi], cols[c.base:hi], vals[c.base:hi]
	}

	par.ForEach(len(chunks), func(i int) { chunks[i].scan(f, 0, nnz) })
	got, stored := 0, 0
	for i := 0; got < nnz && i < len(chunks); i++ {
		c := &chunks[i]
		if got > 0 && (c.err != nil || got+c.entries > nnz) {
			c.scan(f, got, nnz-got)
		}
		if c.err != nil {
			return nil, 0, c.err
		}
		got += c.entries
		if c.base != stored {
			copy(rows[stored:], c.rows[:c.stored])
			copy(cols[stored:], c.cols[:c.stored])
			copy(vals[stored:], c.vals[:c.stored])
		}
		stored += c.stored
	}
	if got < nnz {
		return nil, 0, fmt.Errorf("mm: expected %d entries, got %d: %w", nnz, got, io.ErrUnexpectedEOF)
	}
	m = &sparse.COO{N: n, Rows: rows[:stored], Cols: cols[:stored], Vals: vals[:stored]}
	kept = m.SortRowMajor()
	m.DedupSum()
	return m, kept, nil
}

// entryFormat is what every chunk scan needs to read an entry line.
type entryFormat struct {
	n        int
	pattern  bool
	symmetry Symmetry
}

// chunk is one '\n'-aligned piece of the entry section, the window of the
// matrix arrays its entries go to, and what scanning it found.
type chunk struct {
	data            []byte
	base, slots     int // the window: [base, base+slots) of the arrays
	rows, cols      []int32
	vals            []float64
	entries, stored int   // entries read; nonzeros written to the window
	err             error // the first bad entry, if the scan met one
}

// split cuts body into k pieces, each ending just after a '\n' (the last
// at the end of body), so the pieces' lines, in order, are body's lines.
func split(body []byte, k int) []chunk {
	chunks := make([]chunk, k)
	start := 0
	for i := range chunks {
		end := len(body)
		if i < k-1 {
			end = max(start, (i+1)*len(body)/k)
			if j := bytes.IndexByte(body[end:], '\n'); j >= 0 {
				end += j + 1
			} else {
				end = len(body)
			}
		}
		chunks[i].data = body[start:end]
		start = end
	}
	return chunks
}

// lines counts the lines of c's piece; the last may lack its '\n'.
func (c *chunk) lines() int {
	l := bytes.Count(c.data, []byte{'\n'})
	if len(c.data) > 0 && c.data[len(c.data)-1] != '\n' {
		l++
	}
	return l
}

// scan reads c's lines as entries first, first+1, … into c's window,
// stopping after limit entries or at the first bad line, whose error
// (numbered from first) it records. The window holds every nonzero the
// chunk can yield (see parse), so an index past it is a bug, and it panics
// rather than writing into a neighbour's window.
//
// Each line is read by walk; a line walk declines goes to nextContent and
// entry, which skip comments and blank lines and alone report errors.
func (c *chunk) scan(f entryFormat, first, limit int) {
	rows, cols, vals := c.rows, c.cols, c.vals
	entries, stored := 0, 0
	var err error
	rest := c.data
	for entries < limit {
		r, col, v, n, ok := f.walk(rest)
		if ok {
			rest = rest[n:]
		} else {
			sc := lineScanner{rest: rest}
			line, more := sc.nextContent()
			if !more {
				break
			}
			rest = sc.rest
			if r, col, v, err = f.entry(line, first+entries); err != nil {
				break
			}
		}
		rows[stored], cols[stored], vals[stored] = r, col, v
		stored++
		if f.symmetry != General && r != col {
			if f.symmetry == SkewSymmetric {
				v = -v
			}
			rows[stored], cols[stored], vals[stored] = col, r, v
			stored++
		}
		entries++
	}
	c.entries, c.stored, c.err = entries, stored, err
}

// walk reads the entry line at the start of b in one forward pass over its
// bytes: spaces or tabs, then the row and the column as unsigned decimals
// in [1, f.n], then (unless f.pattern) the value, each token ending at
// whitespace, and nothing but whitespace to the line's '\n' or the end of
// b. It returns the 0-based entry and the bytes the line takes, its '\n'
// included. At the first byte it does not handle, it declines (ok is
// false) and the caller reads the line through entry: comments and blank
// lines, other leading whitespace, signed or out-of-range indices, extra
// fields, and the value tokens value declines.
func (f entryFormat) walk(b []byte) (r, c int32, v float64, n int, ok bool) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	var idx [2]int32
	for k := range idx {
		x, j := 0, i
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			if x = x*10 + int(b[j]-'0'); x > f.n {
				return 0, 0, 0, 0, false
			}
		}
		if x == 0 {
			return 0, 0, 0, 0, false // no digits, or index 0
		}
		idx[k] = int32(x - 1)
		// A token must end at whitespace; a pattern line may end at its
		// column, which the switch below checks.
		if i = skipSpace(b, j); i == j && (k == 0 || !f.pattern) {
			return 0, 0, 0, 0, false
		}
	}
	v = 1
	if !f.pattern {
		if v, i, ok = value(b, i); !ok {
			return 0, 0, 0, 0, false
		}
		i = skipSpace(b, i)
	}
	switch {
	case i == len(b):
	case b[i] == '\n':
		i++
	default:
		return 0, 0, 0, 0, false // another field, or a token running on
	}
	return idx[0], idx[1], v, i, true
}

// skipSpace returns the index of the first byte of b at or after i that is
// not intra-line whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// value reads the decimal number at b[i:] — an optional sign, digits with
// at most one '.', an optional exponent — and returns the index end after
// it and its value, bit for bit what strconv.ParseFloat returns for
// b[i:end]. It declines (ok is false) a number with no mantissa or no
// exponent digits, one with more than 19 significant digits or a decimal
// exponent outside [-19, 19], and one toFloat cannot round. It stops at
// the first byte that cannot continue the number; whether the token ends
// there (in an inf, nan, hex float or underscore it does not) is the
// caller's to check.
//
// Past the first significant digit it reads eight digits a step
// (eightDigits) while eight bytes remain and the 19-digit limit allows
// them; a step that meets another byte is not tried again before the
// point.
func value(b []byte, i int) (v float64, end int, ok bool) {
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var w uint64 // the significant digits
	q, sig, digits, dot, wide := 0, 0, 0, false, true
	for i < len(b) {
		d := b[i] - '0'
		if d > 9 {
			if b[i] != '.' || dot {
				break
			}
			dot, wide = true, true
			i++
			continue
		}
		if w != 0 && wide && sig <= 19-8 && len(b)-i >= 8 {
			if x, all := eightDigits(binary.LittleEndian.Uint64(b[i:])); all {
				w = w*1e8 + x
				sig += 8
				if dot {
					q -= 8
				}
				i += 8
				continue
			}
			wide = false
		}
		digits++
		if dot {
			q--
		}
		if w == 0 && d == 0 {
			i++
			continue // a leading zero
		}
		if sig++; sig > 19 {
			return 0, i, false
		}
		w = w*10 + uint64(d)
		i++
	}
	if digits == 0 {
		return 0, i, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		e, j := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			// Declining past 9999 keeps e exact: a leading-zero run in
			// the fraction can pull a large e back into range.
			if e = e*10 + int(b[i]-'0'); e > 9999 {
				return 0, i, false
			}
		}
		if i == j {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		q += e
	}
	if q < -19 || q > 19 {
		return 0, i, false
	}
	if v, ok = toFloat(w, q, neg); !ok {
		return 0, i, false
	}
	return v, i, true
}

// eightDigits reports whether the eight bytes of x, read little-endian
// (the first byte lowest), are all ASCII digits, and if so returns the
// number they spell, the first byte most significant.
func eightDigits(x uint64) (uint64, bool) {
	const ones = 0x0101010101010101
	// A byte is a digit iff its high nibble is 3 and stays 3 when 6 is
	// added. A byte that carries into its neighbour has a high nibble
	// other than 3 already, so the carry cannot hide it.
	if x&(0xf0*ones)|(x+6*ones)&(0xf0*ones)>>4 != 0x33*ones {
		return 0, false
	}
	x -= '0' * ones
	x = x*10 + x>>8 // byte 2k: the two-digit number of bytes 2k and 2k+1
	// Bytes 0, 2, 4, 6 hold the pairs a, b, c, d; the top half of the
	// sum is a·10^6 + b·10^4 + c·100 + d.
	return (x&0xff000000ff*(100+1000000<<32) + x>>16&0xff000000ff*(1+10000<<32)) >> 32, true
}

// pow10s[q+19] is 10^q for q in [-19, 19] as a 128-bit mantissa hi·2^64 +
// lo in [2^127, 2^128) times 2^exp: exact for q >= 0 (10^19 < 2^64), and
// truncated towards zero for q < 0.
var pow10s = func() (t [39]struct {
	hi, lo uint64
	exp    int
}) {
	var buf [16]byte
	for q := -19; q <= 19; q++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		e := p.BitLen() - 128 // 10^q = (10^q << -e) · 2^e
		if q < 0 {
			e = -127 - p.BitLen() // 10^q = (2^-e / 10^-q) · 2^e
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(-e)), p)
		} else {
			p.Lsh(p, uint(-e))
		}
		p.FillBytes(buf[:])
		t[q+19].hi = binary.BigEndian.Uint64(buf[:8])
		t[q+19].lo = binary.BigEndian.Uint64(buf[8:])
		t[q+19].exp = e
	}
	return t
}()

// toFloat returns ±w·10^q rounded to the nearest float64, ties to even,
// for w < 10^19 and |q| <= 19 — every such value but zero lies between
// 10^-19 and 10^38, in float64's normal range — by the Eisel–Lemire method
// (Lemire, "Number Parsing at a Gigabyte per Second", 2021): w shifted to
// the top of 64 bits times the high half of pow10s[q+19] is one 64×64→128
// multiply, whose top 53 bits, rounded, are the mantissa.
//
// For q >= 0 the product is exact and rounds as it stands. For q < 0 the
// power is truncated, so the true product lies above the computed one by
// less than m+1 units of its low word, m being the shifted w. That can
// change the rounding only when the bits below the mantissa sit just under
// the halfway point; then the power's low half is multiplied in too, and
// if they still sit just under it, ok is false and the caller rounds the
// number exactly (strconv.ParseFloat). An exact tie with q < 0 is such a
// number; so is none other with w < 10^19 and q >= -19: a non-tie lies at
// least 2^-118 of its value away from the halfway point, and the undecided
// window is under 2^-125 wide.
func toFloat(w uint64, q int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if w == 0 {
		return math.Float64frombits(sign), true
	}
	clz := bits.LeadingZeros64(w)
	m := w << clz
	p := &pow10s[q+19]
	hi, lo := bits.Mul64(m, p.hi) // hi >= 2^62: both factors have their top bit set
	s := 10 + hi>>63              // the bits of hi below the 53 kept
	half := uint64(1) << (s - 1)
	drop := hi & (half<<1 - 1)
	mant := hi >> s
	var up bool
	switch {
	case q >= 0:
		up = drop > half || drop == half && (lo != 0 || mant&1 == 1)
	case drop != half-1 || lo <= ^m:
		up = drop >= half // the true product cannot cross the halfway point
	default:
		yhi, ylo := bits.Mul64(m, p.lo)
		lo, carry := bits.Add64(lo, yhi, 0)
		if carry == 0 && lo == ^uint64(0) && ylo > ^m {
			return 0, false
		}
		up = carry == 1
	}
	exp := int(s) + 128 + p.exp - clz + 52 // the binary exponent of mant's top bit
	if up {
		if mant++; mant == 1<<53 {
			mant >>= 1
			exp++
		}
	}
	return math.Float64frombits(sign | uint64(exp+1023)<<52 | mant&(1<<52-1)), true
}

// entry parses one content line into a 0-based (row, col, value); idx
// numbers the entry in the error.
func (f entryFormat) entry(line []byte, idx int) (int32, int32, float64, error) {
	rtok, rest := field(line)
	ctok, rest := field(rest)
	vtok, _ := field(rest)
	if ctok == nil || (!f.pattern && vtok == nil) {
		return 0, 0, 0, fmt.Errorf("mm: entry %d malformed: %q", idx, line)
	}
	ri, rok := atoi(rtok)
	ci, cok := atoi(ctok)
	if !rok || !cok {
		return 0, 0, 0, fmt.Errorf("mm: entry %d indices %q %q are not integers", idx, rtok, ctok)
	}
	v := 1.0
	if !f.pattern {
		var perr error
		if v, perr = strconv.ParseFloat(unsafe.String(&vtok[0], len(vtok)), 64); perr != nil {
			return 0, 0, 0, fmt.Errorf("mm: entry %d value %q: %w", idx, vtok, numCause(perr))
		}
	}
	// MatrixMarket is 1-indexed.
	if ri < 1 || ri > f.n || ci < 1 || ci > f.n {
		return 0, 0, 0, fmt.Errorf("mm: entry %d (%d,%d) out of range for N=%d", idx, ri, ci, f.n)
	}
	return int32(ri - 1), int32(ci - 1), v, nil
}

// parseSize reads the "rows cols nnz" line of a square matrix and returns
// the dimension and the entry count. It takes exactly three integer
// fields: trailing garbage ("4 4 5 junk") must reject a corrupt upload,
// not mis-read it as 4×4/5.
func parseSize(line []byte) (int, int, error) {
	f0, rest := field(line)
	f1, rest := field(rest)
	f2, rest := field(rest)
	if f3, _ := field(rest); f2 == nil || f3 != nil {
		return 0, 0, fmt.Errorf("mm: bad size line %q: want exactly \"rows cols nnz\"", line)
	}
	rows, ok0 := atoi(f0)
	cols, ok1 := atoi(f1)
	nnz, ok2 := atoi(f2)
	switch {
	case !ok0 || !ok1 || !ok2:
		return 0, 0, fmt.Errorf("mm: bad size line %q: fields must be integers", line)
	case rows != cols:
		return 0, 0, fmt.Errorf("mm: non-square matrix %dx%d not supported", rows, cols)
	case rows <= 0 || nnz < 0:
		return 0, 0, fmt.Errorf("mm: invalid size line: rows=%d nnz=%d", rows, nnz)
	case rows > math.MaxInt32:
		return 0, 0, fmt.Errorf("mm: dimension %d exceeds the int32 index range", rows)
	}
	return rows, nnz, nil
}

// numCause strips a strconv.NumError down to its cause (ErrSyntax or
// ErrRange): the NumError carries the parsed text, which the caller has
// already copied into the message, and dropping it keeps the returned
// error from holding any string derived from the input's backing array.
func numCause(err error) error {
	if ne, ok := err.(*strconv.NumError); ok {
		return ne.Err
	}
	return err
}

// lineScanner walks data line by line without copying. A line ends at
// '\n'; the last line may lack one.
type lineScanner struct{ rest []byte }

func (s *lineScanner) next() ([]byte, bool) {
	if len(s.rest) == 0 {
		return nil, false
	}
	line := s.rest
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, s.rest = line[:i], line[i+1:]
	} else {
		s.rest = nil
	}
	return line, true
}

// nextContent returns the next line that is neither blank nor a '%'
// comment, trimmed of surrounding whitespace.
func (s *lineScanner) nextContent() ([]byte, bool) {
	for {
		line, ok := s.next()
		if !ok {
			return nil, false
		}
		for len(line) > 0 && isSpace(line[0]) {
			line = line[1:]
		}
		for len(line) > 0 && isSpace(line[len(line)-1]) {
			line = line[:len(line)-1]
		}
		if len(line) > 0 && line[0] != '%' {
			return line, true
		}
	}
}

// spaceMask has bit c set for each intra-line whitespace byte c.
const spaceMask = 1<<' ' | 1<<'\t' | 1<<'\v' | 1<<'\f' | 1<<'\r'

func isSpace(c byte) bool { return c <= ' ' && spaceMask&(uint64(1)<<c) != 0 }

// field splits the first whitespace-separated token off s; tok is nil when
// s holds no token.
func field(s []byte) (tok, rest []byte) {
	i := skipSpace(s, 0)
	if i == len(s) {
		return nil, nil
	}
	j := i + 1
	for j < len(s) && !isSpace(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

// atoi parses a decimal integer with the syntax and range strconv.Atoi
// accepts — an optional sign, at least one digit, int64 range — without
// converting b to a string.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || n > (1<<63)/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	switch {
	case neg && n <= 1<<63:
		return int(-n), true
	case !neg && n <= math.MaxInt64:
		return int(n), true
	}
	return 0, false
}

// Write emits m as a general real coordinate MatrixMarket stream.
func Write(w io.Writer, m *sparse.COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.N, m.N, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.NNZ(); i++ {
		r, c, v := m.At(i)
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", r+1, c+1, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
