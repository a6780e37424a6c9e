package mm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// readReference is the line-scanner reader Parse replaced, kept as the
// differential oracle FuzzRead checks Parse against. It shares only
// parseHeader with Parse. Three fixes separate it from the shipped
// original: index ranges are checked before the int32 conversion (2^32+1
// used to wrap onto row 0), dimensions past the int32 index range are
// rejected, and the array capacity hint is bounded so a hostile size line
// cannot exhaust memory.
func readReference(r io.Reader) (*sparse.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)

	if !sc.Scan() {
		return nil, fmt.Errorf("mm: empty input: %w", firstErr(sc.Err(), io.ErrUnexpectedEOF))
	}
	h, err := parseHeader(sc.Text())
	if err != nil {
		return nil, err
	}

	// Skip comments, find the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mm: missing size line: %w", firstErr(sc.Err(), io.ErrUnexpectedEOF))
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("mm: bad size line %q: want exactly \"rows cols nnz\"", line)
		}
		for i, dst := range []*int{&rows, &cols, &nnz} {
			v, err := strconv.Atoi(fields[i])
			if err != nil {
				return nil, fmt.Errorf("mm: bad size line %q: %w", line, err)
			}
			*dst = v
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("mm: non-square matrix %dx%d not supported", rows, cols)
	}
	if rows <= 0 || nnz < 0 {
		return nil, fmt.Errorf("mm: invalid size line: rows=%d nnz=%d", rows, nnz)
	}
	if rows > math.MaxInt32 {
		return nil, fmt.Errorf("mm: dimension %d exceeds the int32 index range", rows)
	}

	capHint := min(nnz, 1<<16)
	if h.symmetry != General {
		capHint *= 2
	}
	m := sparse.NewCOO(rows, capHint)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("mm: expected %d entries, got %d: %w",
				nnz, read, firstErr(sc.Err(), io.ErrUnexpectedEOF))
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		wantFields := 3
		if h.field == "pattern" {
			wantFields = 2
		}
		if len(fields) < wantFields {
			return nil, fmt.Errorf("mm: entry %d malformed: %q", read, line)
		}
		ri, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mm: entry %d row: %w", read, err)
		}
		ci, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mm: entry %d col: %w", read, err)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mm: entry %d value: %w", read, err)
			}
		}
		// MatrixMarket is 1-indexed.
		if ri < 1 || ri > rows || ci < 1 || ci > rows {
			return nil, fmt.Errorf("mm: entry %d (%d,%d) out of range for N=%d", read, ri, ci, rows)
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
		read++
	}
	m.SortRowMajor()
	m.DedupSum()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mm: parsed matrix invalid: %w", err)
	}
	return m, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// sameCOO reports whether two matrices are identical. Values compare bit
// for bit, so -0 differs from 0, except that any two NaNs are equal: Write
// prints every NaN as "NaN", dropping its sign and payload.
func sameCOO(a, b *sparse.COO) bool {
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.NNZ(); i++ {
		r1, c1, v1 := a.At(i)
		r2, c2, v2 := b.At(i)
		if r1 != r2 || c1 != c2 {
			return false
		}
		if math.Float64bits(v1) != math.Float64bits(v2) && !(math.IsNaN(v1) && math.IsNaN(v2)) {
			return false
		}
	}
	return true
}

func TestReadGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 3
1 1 2.5
3 2 -1
2 3 4
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 || m.NNZ() != 3 {
		t.Fatalf("N=%d nnz=%d", m.N, m.NNZ())
	}
	r, c, v := m.At(0)
	if r != 0 || c != 0 || v != 2.5 {
		t.Fatalf("first entry (%d,%d,%g)", r, c, v)
	}
	r, c, v = m.At(2)
	if r != 2 || c != 1 || v != -1 {
		t.Fatalf("last entry (%d,%d,%g)", r, c, v)
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5
3 3 7
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 { // (1,0), (0,1), (2,2)
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	r, c, v := m.At(0)
	if r != 0 || c != 1 || v != 5 {
		t.Fatalf("mirrored entry (%d,%d,%g)", r, c, v)
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	_, _, v := m.At(0) // (0,1) should carry -3
	if v != -3 {
		t.Fatalf("skew value %g, want -3", v)
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NNZ(); i++ {
		if _, _, v := m.At(i); v != 1 {
			t.Fatalf("pattern value %g", v)
		}
	}
}

func TestReadIntegerField(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 7\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, v := m.At(0); v != 7 {
		t.Fatalf("value %g", v)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad banner":   "%%NotMatrixMarket x y z w\n1 1 0\n",
		"bad object":   "%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"dense format": "%%MatrixMarket matrix array real general\n1 1\n",
		"bad field":    "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"non-square":   "%%MatrixMarket matrix coordinate real general\n2 3 0\n",
		"missing size": "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad size":     "%%MatrixMarket matrix coordinate real general\nx y z\n",
		// Strict size-line arity: fmt.Sscan used to accept all four of
		// these (trailing garbage, a fourth integer, a fractional nnz, a
		// short line), silently mis-reading corrupt uploads as 4×4/5 etc.
		"size trailing garbage": "%%MatrixMarket matrix coordinate real general\n4 4 1 junk\n1 1 1\n",
		"size extra integer":    "%%MatrixMarket matrix coordinate real general\n4 4 1 6\n1 1 1\n",
		"size fractional nnz":   "%%MatrixMarket matrix coordinate real general\n2 2 1.5\n1 1 1\n",
		"size short line":       "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
		"short entries":         "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"bad entry":             "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 nope 1\n",
		"bad row":               "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
		"bad value":             "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",
		"out of range":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"zero dimension":        "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"few fields":            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"index overflow":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999 1 1\n",
		"index beyond int64":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 99999999999999999999 1\n",
		// 2^32+1 truncated to int32 used to land on row 0 and be accepted.
		"index wraps int32":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n4294967297 1 1\n",
		"dimension too big":  "%%MatrixMarket matrix coordinate real general\n4294967296 4294967296 0\n",
		"value overflow":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e999\n",
		"sign only index":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n+ 1 1\n",
		"size line negative": "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
		if _, err := readReference(strings.NewReader(in)); err == nil {
			t.Errorf("%s: reference parser accepted it", name)
		}
	}
}

// entry is one expected nonzero, 0-indexed.
type entry struct {
	r, c int32
	v    float64
}

// TestReadAccepts pins the lenient corners of the format that both parsers
// must accept identically.
func TestReadAccepts(t *testing.T) {
	cases := map[string]struct {
		in   string
		want []entry
	}{
		"crlf and tabs": {
			"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1\t1\t1.5\r\n\t2 2  -2 \r\n",
			[]entry{{0, 0, 1.5}, {1, 1, -2}},
		},
		"plus-signed indices": {
			"%%MatrixMarket matrix coordinate real general\n3 3 1\n+3 +1 4\n",
			[]entry{{2, 0, 4}},
		},
		"comments and blank lines between entries": {
			"%%MatrixMarket matrix coordinate real general\n% c\n\n2 2 2\n\n1 2 3\n  % mid\n\n2 1 4\n",
			[]entry{{0, 1, 3}, {1, 0, 4}},
		},
		"extra trailing fields": {
			"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 7 junk 9\n",
			[]entry{{1, 1, 7}},
		},
		"pattern ignores a value field": {
			"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 notanumber\n",
			[]entry{{0, 1, 1}},
		},
		"lines after the last entry are ignored": {
			"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5\nthis is not an entry\n9 9 9\n",
			[]entry{{0, 0, 5}},
		},
		"duplicates summed, no trailing newline": {
			"%%MatrixMarket MATRIX Coordinate Real General\n2 2 2\n1 1 1\n1 1 2",
			[]entry{{0, 0, 3}},
		},
	}
	for name, tc := range cases {
		for _, p := range []struct {
			name  string
			parse func(string) (*sparse.COO, error)
		}{
			{"Read", func(s string) (*sparse.COO, error) { return Read(strings.NewReader(s)) }},
			{"reference", func(s string) (*sparse.COO, error) { return readReference(strings.NewReader(s)) }},
		} {
			m, err := p.parse(tc.in)
			if err != nil {
				t.Errorf("%s (%s): %v", name, p.name, err)
				continue
			}
			if m.NNZ() != len(tc.want) {
				t.Errorf("%s (%s): nnz %d, want %d", name, p.name, m.NNZ(), len(tc.want))
				continue
			}
			for i, w := range tc.want {
				if r, c, v := m.At(i); r != w.r || c != w.c || v != w.v {
					t.Errorf("%s (%s): entry %d = (%d,%d,%g), want (%d,%d,%g)", name, p.name, i, r, c, v, w.r, w.c, w.v)
				}
			}
		}
	}
}

// TestParseLongLine pins the first documented divergence from the
// reference parser: its line scanner gives up on lines of 4 MiB or more,
// Parse has no line limit.
func TestParseLongLine(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n%" + strings.Repeat("x", 5<<20) + "\n1 1 1\n1 1 2\n"
	m, err := Parse([]byte(in))
	if err != nil || m.NNZ() != 1 {
		t.Fatalf("Parse: nnz=%v err=%v", m, err)
	}
	if _, err := readReference(strings.NewReader(in)); err == nil {
		t.Fatal("reference parser accepted a 5 MiB line; the documented divergence is gone")
	}
}

// TestParseUnicodeSpace pins the second documented divergence: the
// reference splits fields on any Unicode space, Parse only on ASCII
// whitespace, so a no-break space inside an entry is a rejection.
func TestParseUnicodeSpace(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a01 1\n"
	if _, err := Parse([]byte(in)); err == nil {
		t.Fatal("Parse accepted a no-break space as a field separator")
	}
	if _, err := readReference(strings.NewReader(in)); err != nil {
		t.Fatalf("reference: %v", err)
	}
}

// TestParseErrorsDoNotAlias overwrites the input after a failed Parse: the
// error text must not change, i.e. it holds no view into the buffer.
func TestParseErrorsDoNotAlias(t *testing.T) {
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e999\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n4 4 1 junk\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"%%MatrixMarket matrix coordinate real banana\n",
	} {
		buf := []byte(in)
		_, err := Parse(buf)
		if err == nil {
			t.Fatalf("%q: expected error", in)
		}
		before := err.Error()
		for i := range buf {
			buf[i] = '#'
		}
		if after := err.Error(); after != before {
			t.Fatalf("error aliases the input: %q became %q", before, after)
		}
	}
}

// body renders a general real MatrixMarket body of n entries on an n×n
// matrix, written in reverse row order so the parse also pays for the sort.
func body(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, n)
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, "%d %d %.17g\n", i, n+1-i, 1/float64(i))
	}
	return b.Bytes()
}

// TestParseAllocsConstant pins the allocation-free parse: a 20k-entry body
// costs the same allocations as a 20-entry one, so a per-entry allocation
// cannot creep back in.
func TestParseAllocsConstant(t *testing.T) {
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Parse(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(body(20)), allocs(body(20000))
	if large > small+2 {
		t.Fatalf("Parse allocations grow with input: %v for 20 entries, %v for 20000", small, large)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := sparse.NewCOO(16, 40)
	seen := map[[2]int32]bool{}
	for len(seen) < 40 {
		r, c := int32(rng.Intn(16)), int32(rng.Intn(16))
		if seen[[2]int32{r, c}] {
			continue
		}
		seen[[2]int32{r, c}] = true
		m.Append(r, c, rng.NormFloat64())
	}
	m.SortRowMajor()

	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != m.N || back.NNZ() != m.NNZ() {
		t.Fatalf("shape changed: N %d->%d nnz %d->%d", m.N, back.N, m.NNZ(), back.NNZ())
	}
	for i := 0; i < m.NNZ(); i++ {
		r1, c1, v1 := m.At(i)
		r2, c2, v2 := back.At(i)
		if r1 != r2 || c1 != c2 || v1 != v2 {
			t.Fatalf("entry %d differs: (%d,%d,%g) vs (%d,%d,%g)", i, r1, c1, v1, r2, c2, v2)
		}
	}
}

// Property: round trip through the textual format is exact for any valid COO
// (we write %.17g which round-trips float64).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := sparse.NewCOO(n, 0)
		seen := map[[2]int32]bool{}
		for i := 0; i < rng.Intn(60); i++ {
			r, c := int32(rng.Intn(n)), int32(rng.Intn(n))
			if seen[[2]int32{r, c}] {
				continue
			}
			seen[[2]int32{r, c}] = true
			m.Append(r, c, rng.NormFloat64()*1e3)
		}
		m.SortRowMajor()
		var buf bytes.Buffer
		if Write(&buf, m) != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil || back.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < m.NNZ(); i++ {
			r1, c1, v1 := m.At(i)
			r2, c2, v2 := back.At(i)
			if r1 != r2 || c1 != c2 || v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetryString(t *testing.T) {
	if General.String() != "general" || Symmetric.String() != "symmetric" ||
		SkewSymmetric.String() != "skew-symmetric" {
		t.Fatal("Symmetry.String broken")
	}
}

// BenchmarkMMRead parses one internal/gen matrix per structural class —
// community (pap), RMAT (kro), near-dense (myc), mesh (del) — at the
// scales the serving benchmark uses, so ns/op and allocs/op here track the
// MatrixMarket layer of a daemon plan build.
func BenchmarkMMRead(b *testing.B) {
	for _, c := range []struct {
		short string
		scale int
	}{{"pap", 400}, {"kro", 256}, {"myc", 64}, {"del", 256}} {
		bm, ok := gen.ByShort(c.short)
		if !ok {
			b.Fatalf("no generator %q", c.short)
		}
		var buf bytes.Buffer
		if err := Write(&buf, bm.Build(1, c.scale)); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(c.short, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
