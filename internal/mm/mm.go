// Package mm reads and writes the MatrixMarket exchange format (Boisvert et
// al.), the on-disk format the HotTiles host software ingests (paper
// §VI-B). It supports the coordinate layout with real, integer, and pattern
// fields, and general/symmetric/skew-symmetric symmetry. Only square
// matrices are accepted, matching the paper's SpMM setting.
package mm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unsafe"

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
// The parse is one pass over data that allocates nothing per line: lines
// and fields are sub-slices of data, indices are parsed inline, and each
// value token reaches strconv.ParseFloat as a zero-copy string view, so
// values are bit-exact. Whitespace is the ASCII set (space, \t, \v, \f,
// \r); fields past the ones an entry needs, and lines after the nnz-th
// entry, are ignored. Returned errors never alias data.
func Parse(data []byte) (*sparse.COO, error) {
	sc := lineScanner{rest: data}
	banner, ok := sc.next()
	if !ok {
		return nil, fmt.Errorf("mm: empty input: %w", io.ErrUnexpectedEOF)
	}
	h, err := parseHeader(string(banner))
	if err != nil {
		return nil, err
	}
	sizeLine, ok := sc.nextContent()
	if !ok {
		return nil, fmt.Errorf("mm: missing size line: %w", io.ErrUnexpectedEOF)
	}
	n, nnz, err := parseSize(sizeLine)
	if err != nil {
		return nil, err
	}

	// An entry line takes at least four bytes ("1 1\n"), so a size line
	// claiming more entries than the input can hold does not size the
	// arrays.
	capHint := min(nnz, len(sc.rest)/4+1)
	if h.symmetry != General {
		capHint *= 2
	}
	pattern := h.field == "pattern"
	m := sparse.NewCOO(n, capHint)
	for read := 0; read < nnz; read++ {
		line, ok := sc.nextContent()
		if !ok {
			return nil, fmt.Errorf("mm: expected %d entries, got %d: %w", nnz, read, io.ErrUnexpectedEOF)
		}
		rtok, rest := field(line)
		ctok, rest := field(rest)
		vtok, _ := field(rest)
		if ctok == nil || (!pattern && vtok == nil) {
			return nil, fmt.Errorf("mm: entry %d malformed: %q", read, line)
		}
		ri, rok := atoi(rtok)
		ci, cok := atoi(ctok)
		if !rok || !cok {
			return nil, fmt.Errorf("mm: entry %d indices %q %q are not integers", read, rtok, ctok)
		}
		v := 1.0
		if !pattern {
			var perr error
			if v, perr = strconv.ParseFloat(unsafe.String(&vtok[0], len(vtok)), 64); perr != nil {
				return nil, fmt.Errorf("mm: entry %d value %q: %w", read, vtok, numCause(perr))
			}
		}
		// MatrixMarket is 1-indexed.
		if ri < 1 || ri > n || ci < 1 || ci > n {
			return nil, fmt.Errorf("mm: entry %d (%d,%d) out of range for N=%d", read, ri, ci, n)
		}
		r0, c0 := int32(ri-1), int32(ci-1)
		m.Append(r0, c0, v)
		if h.symmetry != General && r0 != c0 {
			mv := v
			if h.symmetry == SkewSymmetric {
				mv = -v
			}
			m.Append(c0, r0, mv)
		}
	}
	m.SortRowMajor()
	m.DedupSum()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mm: parsed matrix invalid: %w", err)
	}
	return m, nil
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
	i := 0
	for i < len(s) && isSpace(s[i]) {
		i++
	}
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
