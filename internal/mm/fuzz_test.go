package mm

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzRead exercises the MatrixMarket parser with arbitrary input. Parse
// must never panic and must agree with the line-scanner reference
// (readReference) — the same accept/reject decision and, on acceptance,
// an identical COO — except on the two documented divergences: inputs with
// a line of 4 MiB or more (the reference's scanner limit) and inputs with
// non-ASCII Unicode whitespace, where Parse may reject what the reference
// accepts but never the reverse. The chunked scan at 1, 2, 3 and 7 pieces
// must return Parse's matrix bit for bit, or its exact error text.
// Anything accepted must also round-trip through Write/Read to an
// identical matrix.
func FuzzRead(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.5\n3 2 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 1\n2 1 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n% comment\n\n1 2 9\n")
	// Malformed size lines the strict parser must reject (a pre-fix
	// fmt.Sscan accepted all of these with trailing garbage dropped).
	f.Add("%%MatrixMarket matrix coordinate real general\n4 4 5 junk\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n4 4 5 6\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1.5\n1 1 1\n")
	// Lenient corners and range edges the two parsers must agree on.
	f.Add("%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n+1\t2 nan\r\n2 1 -Inf extra\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n3 1 0x1p-3\n4294967297 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n")
	// Inputs whose outcome depends on more than one chunk: two bad lines
	// (the lower-numbered one is reported), garbage and extra entries after
	// the nnz-th, mirrors in a symmetric body, and a short body.
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n2 x 1\n3 3 1\n1 y 2\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1\n3 1 2\n3 2 3\njunk\n9 9 9\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n\n% c\n2 2 2")
	// The edges of the one-pass entry walk and its exact value conversion:
	// ties at 2^53, 19 and 20 significant digits, decimal exponents ±19 and
	// ±20, signed zeros and bare points, lines it leaves to the per-line
	// path (leading \v, a token running on, a column with a fraction).
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 9007199254740993\n1 2 4503599627370497.5\n2 1 1234567890123456789\n3 3 12345678901234567890\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1e19\n1 2 1e-19\n2 1 1e20\n2 2 0.00000000000000000001\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 -0\n2 1 0e5\n3 1 .5\n3 2 5.\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 3\n\v1 1 1\n1 2 007.5000\r\n2 1 1.5x\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2x\n2 1\n")

	f.Fuzz(func(t *testing.T, input string) {
		m, err := Parse([]byte(input))
		ref, refErr := readReference(strings.NewReader(input))
		for _, k := range []int{1, 2, 3, 7} {
			mk, _, errk := parse([]byte(input), k)
			switch {
			case (errk == nil) != (err == nil):
				t.Fatalf("%d chunks: err %v, Parse err %v", k, errk, err)
			case err != nil && errk.Error() != err.Error():
				t.Fatalf("%d chunks: error %q, Parse error %q", k, errk, err)
			case err == nil && !identical(mk, m):
				t.Fatalf("%d chunks: matrix differs from Parse's", k)
			}
		}
		switch {
		case hasLongLine(input):
			// The reference's scanner limit; only Parse's own checks apply.
		case hasUnicodeSpace(input):
			if err == nil && (refErr != nil || !sameCOO(m, ref)) {
				t.Fatalf("Parse accepted input the reference reads differently (reference err %v)", refErr)
			}
		case (err == nil) != (refErr == nil):
			t.Fatalf("parsers disagree: Parse err %v, reference err %v", err, refErr)
		case err == nil && !sameCOO(m, ref):
			t.Fatal("parsers accepted the input into different matrices")
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !sameCOO(back, m) {
			t.Fatal("round trip changed the matrix")
		}
	})
}

// FuzzValue checks the entry walk's value conversion against
// strconv.ParseFloat on arbitrary strings: whenever value reads a prefix
// of s to a float64, ParseFloat must read that prefix to the same float64,
// bit for bit.
func FuzzValue(f *testing.F) {
	for _, s := range []string{
		"1", "-0", "0e5", ".5", "5.", "+.5e-3", "9007199254740993", "4503599627370497.5",
		"1234567890123456789", "12345678901234567890", "1e19", "1e-19", "1e20", "1e-20",
		"0.0054838709677419351", "1.2345678901234567e-05", "inf", "0x1p-3", "1_0", "1.5x", "",
		// The eight-digit step: 7, 8, 9, 16, 17 and 19 digits, a point,
		// an exponent or a line end inside the window, leading zeros.
		"1234567", "12345678", "123456789", "1234567890123456", "12345678901234567",
		"1234567890123456789", "1234.5678", "1.2345678e5", "12345678\n9", "1234567e5",
		"00000000123456789", "0.0000000012345678", "1234567.8", "123456789012345.67",
		"45035996273704965e-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, end, ok := value([]byte(s), 0)
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s[:end], 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("value read %q as %v; ParseFloat gives %v, %v", s[:end], v, want, err)
		}
	})
}

// hasLongLine reports whether some line of s reaches the reference
// scanner's 4 MiB token limit.
func hasLongLine(s string) bool {
	for _, line := range strings.Split(s, "\n") {
		if len(line) >= 1<<22-1 {
			return true
		}
	}
	return false
}

// hasUnicodeSpace reports whether s holds whitespace outside ASCII, which
// the reference splits fields on and Parse does not.
func hasUnicodeSpace(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool { return r > unicode.MaxASCII && unicode.IsSpace(r) }) >= 0
}
