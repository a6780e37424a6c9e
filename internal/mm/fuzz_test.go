package mm

import (
	"bytes"
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
// accepts but never the reverse. Anything accepted must also round-trip
// through Write/Read to an identical matrix.
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

	f.Fuzz(func(t *testing.T, input string) {
		m, err := Parse([]byte(input))
		ref, refErr := readReference(strings.NewReader(input))
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
