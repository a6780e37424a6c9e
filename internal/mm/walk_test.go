package mm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkValue compares value on s with strconv.ParseFloat, bit for bit,
// and reports whether value read s to its end.
func checkValue(t *testing.T, s string) bool {
	t.Helper()
	v, end, ok := value([]byte(s), 0)
	if !ok || end != len(s) {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("value read %q to %g; ParseFloat: %v", s, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("value(%q) = %v (%#x), ParseFloat %v (%#x)", s, v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true
}

// halfwayCorpus returns decimal strings of values exactly halfway between
// two adjacent float64s, and the strings one unit above and below in the
// last digit, with exponents on both sides of zero.
func halfwayCorpus() []string {
	var out []string
	add := func(w *big.Int, q int) {
		for _, d := range []int64{-1, 0, 1} {
			x := new(big.Int).Add(w, big.NewInt(d))
			out = append(out, fmt.Sprintf("%se%d", x, q))
		}
	}
	// Odd 54-bit integers h sit halfway between 53-bit neighbours.
	for _, h := range []uint64{1<<53 + 1, 1<<53 + 3, 1<<53 + 12345, 1<<54 - 1} {
		for j := 0; j <= 9; j++ { // h·2^j, still under 10^19
			add(new(big.Int).Lsh(new(big.Int).SetUint64(h), uint(j)), 0)
		}
		for k := 1; k <= 3; k++ { // h·2^-k = h·5^k·10^-k
			p := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(k)), nil)
			add(new(big.Int).Mul(new(big.Int).SetUint64(h), p), -k)
		}
	}
	// h = t·5^q odd with 54 bits: h·2^q = t·10^q, a tie at exponent q.
	for q := 1; q <= 19; q++ {
		p := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(q)), nil)
		t := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 53), p)
		t.SetBit(t, 0, 1)
		for new(big.Int).Mul(t, p).BitLen() < 54 {
			t.Add(t, big.NewInt(2))
		}
		add(t, q)
	}
	return out
}

// isTie reports whether the decimal string s lies exactly halfway between
// two adjacent float64s, by exact rational arithmetic.
func isTie(t *testing.T, s string) bool {
	t.Helper()
	x, ok := new(big.Rat).SetString(s)
	f, err := strconv.ParseFloat(s, 64)
	if !ok || err != nil {
		t.Fatalf("isTie(%q): not a finite decimal (%v)", s, err)
	}
	fr := new(big.Rat).SetFloat64(f)
	c := x.Cmp(fr)
	if c == 0 {
		return false
	}
	g := new(big.Rat).SetFloat64(math.Nextafter(f, math.Inf(c)))
	return new(big.Rat).Add(x, x).Cmp(g.Add(g, fr)) == 0
}

// TestValueMatchesParseFloatOnBoundaries pins the converter on the cases
// where an exact conversion is easiest to get wrong. Inside the fast range
// every string must be read and match, except that an exact tie may be
// declined (toFloat leaves a tie it cannot settle to strconv); outside it
// value must decline.
func TestValueMatchesParseFloatOnBoundaries(t *testing.T) {
	accept := []string{
		// 2^53 - 1 … 2^54 + 6: the first integers float64 rounds.
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
		"9007199254740995", "18014398509481985", "18014398509481986", "18014398509481990",
		// Halfway cases below 2^53: ties to even.
		"4503599627370496.5", "4503599627370497.5", "2251799813685248.25", "2251799813685248.75",
		// 19-digit mantissas and the exponent limits.
		"1234567890123456789", "9999999999999999999", "0.9999999999999999999", "1e19", "1e-19",
		"9999999999999999999e19", "9999999999999999999e-19", "1000000000000000000e-19",
		"0.0000000000000000001", "1844674407370955161", "18446744073709551.6",
		// Zeros, signs, bare points, leading and trailing zeros.
		"0", "-0", "+0", "0e5", "-0e5", "0.000", "-0.0e-3", ".5", "5.", "-.5", "+5.", "5.e3", ".5E-3",
		"000000000000000000000000000001", "1.000000000000000000", "100000000000000000", "0.00100",
		"007.5000", "1E+06", "1e-00",
		// Familiar values.
		"0.1", "0.2", "0.3", "1.7976931348623157", "2.2250738585072014", "4.9406564584124654",
		"3.141592653589793", "2.718281828459045", "0.30000000000000004", "123456.789e-15",
		// A leading-zero run in the fraction that a large exponent offsets.
		"0." + strings.Repeat("0", 30) + "5e25", "0." + strings.Repeat("0", 4990) + "1e4999",
	}
	for _, s := range append(accept, halfwayCorpus()...) {
		if !checkValue(t, s) && !isTie(t, s) {
			t.Errorf("value declined %q, which is not a tie", s)
		}
	}
	decline := []string{
		"12345678901234567890", "99999999999999999999", "1.0000000000000000000", "1e20", "1e-20",
		"0.00000000000000000001", "9999999999999999999e20", "1e999", "1e-999", "1e10000",
		"0." + strings.Repeat("0", 4990) + "1e50000", "0." + strings.Repeat("0", 9990) + "1e10000",
		"", "+", "-", ".", "e5", ".e5", "1e", "1e+", "1e-",
	}
	for _, s := range decline {
		if _, end, ok := value([]byte(s), 0); ok {
			t.Errorf("value read %q (to %d); it must decline", s, end)
		}
	}
}

// TestValueHalfwayReachesFallback checks that the halfway corpus drives
// toFloat into its undecided case — every string in it is in value's
// digit and exponent range, so a decline is toFloat's — and that Parse
// reads each declined tie through the strconv.ParseFloat fallback to the
// correctly rounded value.
func TestValueHalfwayReachesFallback(t *testing.T) {
	declined := 0
	for _, s := range halfwayCorpus() {
		if _, _, ok := value([]byte(s), 0); ok {
			continue
		}
		declined++
		m, err := Parse([]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 " + s + "\n"))
		want, _ := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(m.Vals[0]) != math.Float64bits(want) {
			t.Errorf("Parse read the declined tie %q as %v (%v), want %v", s, m, err, want)
		}
	}
	if declined == 0 {
		t.Fatal("no halfway string reached the undecided-rounding fallback")
	}
	t.Logf("%d halfway strings took the fallback", declined)
}

// fastRange reports whether the number token s (sign, digits with at most
// one point, optional exponent) has at most 19 significant digits and a
// decimal exponent in [-19, 19], worked out on the text alone.
func fastRange(s string) bool {
	mant, exp, _ := strings.Cut(strings.ToLower(strings.TrimLeft(s, "+-")), "e")
	e := 0
	if exp != "" {
		e, _ = strconv.Atoi(exp)
	}
	intPart, frac, _ := strings.Cut(mant, ".")
	digits := intPart + frac
	if digits == "" || strings.Trim(digits, "0123456789") != "" {
		return false // inf, nan
	}
	q := e - len(frac)
	return len(strings.TrimLeft(digits, "0")) <= 19 && q >= -19 && q <= 19
}

// TestValueMatchesParseFloatEightDigitSteps covers the eight-digit step on
// tokens of 7, 8, 9, 16, 17 and 19 digits: a point at every offset, runs
// of leading zeros before the first significant digit, an exponent, '\n'
// or the end of the input falling inside an eight-byte window. value must
// read exactly the token, bit for bit as ParseFloat does, unless the token
// is outside the fast range or an exact tie.
func TestValueMatchesParseFloatEightDigitSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tokens []string
	for _, n := range []int{7, 8, 9, 16, 17, 19} {
		digits := []byte{byte('1' + rng.Intn(9))}
		for len(digits) < n {
			digits = append(digits, byte('0'+rng.Intn(10)))
		}
		for _, lead := range []string{"", "0", "00000000", "0.", "0.0000000", "000.00"} {
			for point := -1; point <= n; point++ {
				if point >= 0 && strings.Contains(lead, ".") {
					continue
				}
				tok := lead + string(digits)
				if point >= 0 {
					at := len(lead) + point
					tok = tok[:at] + "." + tok[at:]
				}
				for _, exp := range []string{"", "e5", "E-3", "e+01"} {
					tokens = append(tokens, tok+exp, "-"+tok+exp)
				}
			}
		}
	}
	read := 0
	for _, tok := range tokens {
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatalf("%q: %v", tok, err)
		}
		for _, rest := range []string{"", "\n", "\n12 34 5.678\n", " 1", "\t"} {
			s := tok + rest
			v, end, ok := value([]byte(s), 0)
			switch {
			case !ok:
				if fastRange(tok) && !isTie(t, tok) {
					t.Errorf("value declined %q", s)
				}
			case end != len(tok):
				t.Errorf("value(%q) ended at %d, want %d", s, end, len(tok))
			case math.Float64bits(v) != math.Float64bits(want):
				t.Errorf("value(%q) = %v, ParseFloat %v", s, v, want)
			default:
				read++
			}
		}
	}
	t.Logf("value read %d of %d strings", read, 5*len(tokens))
	if read < 5*len(tokens)/2 {
		t.Errorf("value read only %d of %d strings", read, 5*len(tokens))
	}
}

// TestEightDigits checks the eight-digit step against the byte loop's
// definition on every window of one digit or non-digit per byte,
// including bytes next to '0' and '9' in ASCII and high bytes that carry.
func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd := []byte{'/', ':', '.', 'e', '\n', ' ', 0, 0x30 + 0x80, 0xff, 0xfa, 0x39 + 0x10}
	for range 200_000 {
		var b [8]byte
		all := true
		for k := range b {
			if rng.Intn(16) == 0 {
				b[k], all = odd[rng.Intn(len(odd))], false
			} else {
				b[k] = byte('0' + rng.Intn(10))
			}
		}
		x, ok := eightDigits(binary.LittleEndian.Uint64(b[:]))
		if ok != all {
			t.Fatalf("eightDigits(%q) ok = %v, want %v", b, ok, all)
		}
		if want, _ := strconv.ParseUint(string(b[:]), 10, 64); ok && x != want {
			t.Fatalf("eightDigits(%q) = %d, want %d", b, x, want)
		}
	}
}

// TestValueMatchesParseFloatRandom compares value with ParseFloat on 10^6
// seeded strings: %.17g and %g renderings of values across the fast
// range's magnitudes, random digit strings with random points and
// exponents, and %.17g renderings of random bit patterns. value may
// decline only strings outside the fast range and exact ties.
func TestValueMatchesParseFloatRandom(t *testing.T) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	read := 0
	for i := range n {
		buf = buf[:0]
		switch i % 4 {
		case 0, 1:
			x := rng.Float64() * math.Pow(10, float64(rng.Intn(36)-18))
			if rng.Intn(2) == 0 {
				x = -x
			}
			if i%4 == 0 {
				buf = strconv.AppendFloat(buf, x, 'g', 17, 64)
			} else {
				buf = strconv.AppendFloat(buf, x, 'g', -1+rng.Intn(8), 64)
			}
		case 2:
			digits := 1 + rng.Intn(20)
			point := rng.Intn(digits + 2)
			for d := range digits {
				if d == point {
					buf = append(buf, '.')
				}
				buf = append(buf, byte('0'+rng.Intn(10)))
			}
			if rng.Intn(2) == 0 {
				buf = strconv.AppendInt(append(buf, 'e'), int64(rng.Intn(51)-25), 10)
			}
		case 3:
			buf = strconv.AppendFloat(buf, math.Float64frombits(rng.Uint64()), 'g', 17, 64)
		}
		if s := string(buf); checkValue(t, s) {
			read++
		} else if fastRange(s) && !isTie(t, s) {
			t.Fatalf("value declined %q, which is in range and not a tie", s)
		}
	}
	t.Logf("value read %d of %d strings", read, n)
	if read < n/2 {
		t.Errorf("value read only %d of %d strings", read, n)
	}
}

// TestWalkMatchesEntryOnDaemonBodies reads every entry line of the four
// daemon-shaped bodies through walk and through entry: walk must take
// every line, and give the same (row, col, value).
func TestWalkMatchesEntryOnDaemonBodies(t *testing.T) {
	for _, c := range []struct {
		short string
		scale int
	}{{"pap", 400}, {"kro", 256}, {"myc", 64}, {"del", 256}} {
		data := daemonBody(t, c.short, c.scale, 1)
		sc := lineScanner{rest: data}
		sc.next()
		sc.next() // banner and size line
		f := entryFormat{n: 1 << 30}
		lines := 0
		for line, ok := sc.next(); ok; line, ok = sc.next() {
			r, col, v, n, wok := f.walk(line)
			er, ec, ev, err := f.entry(line, lines)
			switch {
			case err != nil:
				t.Fatalf("%s line %d %q: %v", c.short, lines, line, err)
			case !wok || n != len(line):
				t.Fatalf("%s line %d %q: walk declined (ok %v, read %d)", c.short, lines, line, wok, n)
			case r != er || col != ec || math.Float64bits(v) != math.Float64bits(ev):
				t.Fatalf("%s line %d %q: walk (%d,%d,%v), entry (%d,%d,%v)", c.short, lines, line, r, col, v, er, ec, ev)
			}
			lines++
		}
		if lines == 0 {
			t.Fatalf("%s: no entry lines", c.short)
		}
	}
}

// TestWalkDeclinesToEntry checks each kind of line walk leaves to the
// per-line path: walk declines it, and Parse then gives exactly what entry
// gives for it (its entry or its error text), or skips it when it holds
// no content.
func TestWalkDeclinesToEntry(t *testing.T) {
	const banner = "%%MatrixMarket matrix coordinate "
	cases := []struct {
		field, line string
	}{
		// No content: skipped.
		{"real", "% comment"}, {"real", ""}, {"real", "   \t"}, {"real", "\t% indented comment"},
		// Leading whitespace other than space or tab.
		{"real", "\v1 2 3"}, {"real", "\f1 2 3"}, {"real", "\r1 2 3"},
		// Signed or out-of-range indices.
		{"real", "+1 2 3"}, {"real", "1 -2 3"}, {"real", "-1 2 3"}, {"real", "5 1 1"}, {"real", "0 1 1"},
		{"real", "1 0 1"}, {"real", "99999999999999999999 1 1"}, {"pattern", "+2 1"},
		// Values outside the fast range or syntax: inf, nan, hex, underscores.
		{"real", "1 1 inf"}, {"real", "1 1 -Inf"}, {"real", "1 1 nan"}, {"real", "1 1 Infinity"},
		{"real", "1 1 0x1p-3"}, {"real", "1 1 1_0"}, {"real", "1 1 12345678901234567890"},
		{"real", "1 1 1.0000000000000000000"}, {"real", "1 1 1e20"}, {"real", "1 1 1e-20"},
		{"real", "1 1 0.00000000000000000001"}, {"real", "1 1 1e999"}, {"real", "1 1 zz"}, {"real", "1 1 1e"},
		// Anything after a token that is not whitespace.
		{"real", "1 1 1 junk"}, {"real", "1 1 1x"}, {"real", "1x 1 1"}, {"real", "1 1x 1"}, {"real", "1 1.5 2"},
		{"real", "1 1.5"}, {"real", "1 1"}, {"real", "1"}, {"pattern", "1 2 notanumber"}, {"pattern", "1 2x"},
		{"integer", "1 2 3 4"},
	}
	for _, tc := range cases {
		f := entryFormat{n: 4, pattern: tc.field == "pattern"}
		if _, _, _, _, ok := f.walk([]byte(tc.line)); ok {
			t.Errorf("%s %q: walk took the line", tc.field, tc.line)
			continue
		}
		in := banner + tc.field + " general\n4 4 2\n" + tc.line + "\n4 4 1\n4 4 1\n"
		m, err := Parse([]byte(in))
		sc := lineScanner{rest: []byte(tc.line)}
		line, content := sc.nextContent()
		if !content {
			if err != nil || m.NNZ() != 1 || m.Vals[0] != 2 {
				t.Errorf("%s %q: Parse did not skip the line: %v %v", tc.field, tc.line, m, err)
			}
			continue
		}
		r, c, v, werr := f.entry(line, 0)
		switch {
		case werr != nil && (err == nil || err.Error() != werr.Error()):
			t.Errorf("%s %q: Parse error %v, entry error %v", tc.field, tc.line, err, werr)
		case werr == nil && err != nil:
			t.Errorf("%s %q: Parse: %v", tc.field, tc.line, err)
		case werr == nil && (m.NNZ() != 2 || m.Rows[0] != r || m.Cols[0] != c ||
			math.Float64bits(m.Vals[0]) != math.Float64bits(v)):
			t.Errorf("%s %q: Parse gave %v, entry (%d,%d,%v)", tc.field, tc.line, m, r, c, v)
		}
	}
}

// TestWalkReadsLineEndings checks the line ends walk takes: '\n', the end
// of the input, CRLF and trailing whitespace, and a pattern line ending at
// its column; the bytes read include the '\n'.
func TestWalkReadsLineEndings(t *testing.T) {
	for _, tc := range []struct {
		pattern bool
		in      string
		n       int
	}{
		{false, "1 2 3\nrest", 6}, {false, "1 2 3", 5}, {false, "1 2 3\r\nrest", 7},
		{false, " \t1\t2 \v3 \f\r\n", 12}, {true, "1 2\n", 4}, {true, "1 2", 3}, {true, "1 2 \r\n", 6},
		{false, "0001 02 3.0", 11},
	} {
		f := entryFormat{n: 4, pattern: tc.pattern}
		r, c, v, n, ok := f.walk([]byte(tc.in))
		want := 3.0
		if tc.pattern {
			want = 1
		}
		if !ok || r != 0 || c != 1 || v != want || n != tc.n {
			t.Errorf("walk(%q) = (%d,%d,%v) read %d ok %v; want (0,1,%v) read %d",
				tc.in, r, c, v, n, ok, want, tc.n)
		}
	}
}
