package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlusTimesBasics(t *testing.T) {
	s := PlusTimes()
	if s.Add(2, 3) != 5 || s.Mul(2, 3) != 6 || s.AddIdentity != 0 || s.OpsPerMAC != 2 {
		t.Fatal("plus-times misbehaves")
	}
}

func TestMinPlusBasics(t *testing.T) {
	s := MinPlus()
	if s.Add(2, 3) != 2 || s.Mul(2, 3) != 5 {
		t.Fatal("min-plus misbehaves")
	}
	if !math.IsInf(s.AddIdentity, 1) {
		t.Fatal("min-plus identity should be +Inf")
	}
	if s.Add(s.AddIdentity, 7) != 7 {
		t.Fatal("identity law broken")
	}
}

func TestMaxPlusBasics(t *testing.T) {
	s := MaxPlus()
	if s.Add(2, 3) != 3 || s.Mul(2, 3) != 5 {
		t.Fatal("max-plus misbehaves")
	}
	if s.Add(s.AddIdentity, -7) != -7 {
		t.Fatal("identity law broken")
	}
}

func TestBoolOrAnd(t *testing.T) {
	s := BoolOrAnd()
	cases := []struct{ a, b, or, and float64 }{
		{0, 0, 0, 0}, {0, 1, 1, 0}, {1, 0, 1, 0}, {1, 1, 1, 1},
	}
	for _, c := range cases {
		if s.Add(c.a, c.b) != c.or {
			t.Errorf("or(%g,%g) = %g, want %g", c.a, c.b, s.Add(c.a, c.b), c.or)
		}
		if s.Mul(c.a, c.b) != c.and {
			t.Errorf("and(%g,%g) = %g, want %g", c.a, c.b, s.Mul(c.a, c.b), c.and)
		}
	}
}

func TestScaledPreservesValueAndScalesCost(t *testing.T) {
	base := PlusTimes()
	for _, f := range []int{1, 2, 4, 16} {
		s := Scaled(base, f)
		if got := s.Mul(3, 4); got != 12 {
			t.Fatalf("factor %d: Mul(3,4) = %g, want 12", f, got)
		}
		if s.OpsPerMAC != base.OpsPerMAC*float64(f) {
			t.Fatalf("factor %d: OpsPerMAC = %g", f, s.OpsPerMAC)
		}
	}
}

func TestScaledClampsFactor(t *testing.T) {
	s := Scaled(PlusTimes(), 0)
	if s.OpsPerMAC != 2 {
		t.Fatalf("OpsPerMAC = %g, want 2", s.OpsPerMAC)
	}
	if s.Mul(5, 6) != 30 {
		t.Fatal("value changed")
	}
}

// Property: Add is commutative and associative with the identity for all
// stock semirings on finite values.
func TestMonoidLawsProperty(t *testing.T) {
	rings := []Semiring{PlusTimes(), MinPlus(), MaxPlus(), BoolOrAnd()}
	for _, s := range rings {
		s := s
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			draw := func() float64 {
				if s.Name == "bool-or-and" {
					return float64(rng.Intn(2))
				}
				return float64(rng.Intn(100)) - 50
			}
			a, b, c := draw(), draw(), draw()
			if s.Add(a, b) != s.Add(b, a) {
				return false
			}
			if s.Add(s.Add(a, b), c) != s.Add(a, s.Add(b, c)) {
				return false
			}
			return s.Add(s.AddIdentity, a) == a
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestRowKernelsMatchElementwise checks both row kernels of every stock
// semiring against the element-wise Add/Mul definition, bit for bit,
// including the non-finite values min-plus and max-plus start from, at
// row lengths below, at and past the plus-times unroll width.
func TestRowKernelsMatchElementwise(t *testing.T) {
	for _, k := range []int{3, 4, 17} {
		testRowKernels(t, k)
	}
}

func testRowKernels(t *testing.T, k int) {
	rng := rand.New(rand.NewSource(3))
	in := make([]float64, k+3) // longer than out: the kernels read len(out)
	base := make([]float64, k)
	for i := range in {
		in[i] = rng.Float64()*4 - 2
	}
	for i := range base {
		base[i] = rng.Float64()*4 - 2
	}
	base[0], base[1] = math.Inf(1), math.Inf(-1)
	for _, s := range []Semiring{PlusTimes(), MinPlus(), MaxPlus(), BoolOrAnd(), Scaled(PlusTimes(), 3)} {
		v := rng.Float64()*4 - 2
		got := append([]float64(nil), base...)
		s.MulAddRow(got, in, v)
		for x := range got {
			if want := s.Add(base[x], s.Mul(v, in[x])); math.Float64bits(got[x]) != math.Float64bits(want) {
				t.Fatalf("%s MulAddRow[%d] = %g, want %g", s.Name, x, got[x], want)
			}
		}
		got = append(got[:0], base...)
		s.AddRow(got, in)
		for x := range got {
			if want := s.Add(base[x], in[x]); math.Float64bits(got[x]) != math.Float64bits(want) {
				t.Fatalf("%s AddRow[%d] = %g, want %g", s.Name, x, got[x], want)
			}
		}
	}
}

// TestMulAddRunMatchesRowSequence checks the run kernel of every stock
// semiring against one MulAddRow per nonzero, bit for bit, for runs of 1 to
// 9 nonzeros (whole four-nonzero passes and every remainder) at row widths
// below, at and past the plus-times unroll width, with repeated columns
// and the non-finite values min-plus and max-plus start from.
func TestMulAddRunMatchesRowSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 3, 4, 17} {
		const rows = 6
		din := make([]float64, rows*k)
		for i := range din {
			din[i] = rng.Float64()*4 - 2
		}
		din[0] = math.Inf(1)
		base := make([]float64, k)
		for i := range base {
			base[i] = rng.Float64()*4 - 2
		}
		for n := 1; n <= 9; n++ {
			cols := make([]int32, n)
			vals := make([]float64, n)
			for j := range cols {
				cols[j] = int32(rng.Intn(rows))
				vals[j] = rng.Float64()*4 - 2
			}
			for _, s := range []Semiring{PlusTimes(), MinPlus(), MaxPlus(), BoolOrAnd(), Scaled(PlusTimes(), 3)} {
				want := append([]float64(nil), base...)
				for j, c := range cols {
					s.MulAddRow(want, din[int(c)*k:], vals[j])
				}
				got := append([]float64(nil), base...)
				s.MulAddRun(got, din, cols, vals)
				for x := range got {
					if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
						t.Fatalf("%s k=%d run of %d: out[%d] = %v, per-nonzero %v", s.Name, k, n, x, got[x], want[x])
					}
				}
			}
		}
	}
}

// TestScaledStaysGeneric pins that Scaled never inherits the plus-times row
// kernel: the copy is generic, so MulAddRow calls its Mul, and each Mul
// still burns factor base multiplies.
func TestScaledStaysGeneric(t *testing.T) {
	if PlusTimes().kind != plusTimes {
		t.Fatal("PlusTimes does not select the plus-times row kernel")
	}
	const factor, k = 4, 5
	base := PlusTimes()
	calls := 0
	base.Mul = func(a, b float64) float64 {
		calls++
		return a * b
	}
	s := Scaled(base, factor)
	if s.kind != generic {
		t.Fatalf("Scaled(PlusTimes(), %d) kind = %d, want generic", factor, s.kind)
	}
	out := make([]float64, k)
	in := []float64{1, 2, 3, 4, 5}
	s.MulAddRow(out, in, 2)
	if calls != factor*k {
		t.Fatalf("MulAddRow over %d elements made %d base multiplies, want %d", k, calls, factor*k)
	}
	for x, v := range out {
		if v != 2*in[x] {
			t.Fatalf("out[%d] = %g, want %g", x, v, 2*in[x])
		}
	}
}
