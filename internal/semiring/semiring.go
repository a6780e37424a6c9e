// Package semiring defines the algebraic semirings over which generalized
// SpMM (gSpMM) operates, following Davis's GraphBLAS formulation referenced
// by the paper (§II-A). A semiring supplies the additive monoid ⊕ (with its
// identity) and the multiplicative operation ⊗. The relative computational
// cost of the monoids, expressed as OpsPerMAC, drives the arithmetic
// intensity of the kernel: the paper's Figure 14 sweeps exactly this knob on
// the SPADE-Sextans+PCIe architecture.
package semiring

import "math"

// Semiring is a gSpMM algebra. Add must be associative and commutative with
// AddIdentity as its identity; Mul distributes over Add in a proper
// semiring, though the kernels here only require the SpMM access pattern.
type Semiring struct {
	// Name identifies the semiring in reports.
	Name string
	// Add is the additive monoid ⊕.
	Add func(a, b float64) float64
	// Mul is the multiplicative operation ⊗.
	Mul func(a, b float64) float64
	// AddIdentity is the identity of Add and the initial value of output
	// accumulators (0 for arithmetic, +Inf for min-plus, ...).
	AddIdentity float64
	// OpsPerMAC is the number of scalar arithmetic operations one ⊕/⊗ pair
	// costs relative to the plain multiply-accumulate's 2 ops. Plain SpMM has
	// OpsPerMAC = 2; a gSpMM variant with 4× the arithmetic intensity has
	// OpsPerMAC = 8. This feeds the model's FLOP accounting.
	OpsPerMAC float64
	// kind names an algebra the row kernels run as an inlined loop. Only
	// PlusTimes sets it; the zero value is generic, so hand-built
	// semirings and Scaled always go through Add and Mul. A PlusTimes value
	// may change Name or OpsPerMAC, but a different algebra needs a new
	// Semiring: the plus-times row kernels ignore Add and Mul.
	kind kind
}

// kind selects a row kernel implementation.
type kind uint8

const (
	generic kind = iota
	plusTimes
)

// MulAddRow computes out[x] = out[x] ⊕ (v ⊗ in[x]) for every x: one
// nonzero's contribution to its output row, the gSpMM multiply-accumulate.
// in must be at least as long as out.
//
// Plus-times runs an inlined loop instead of two indirect calls per
// element. The explicit float64 conversion rounds the product before the
// add, which forbids fused multiply-add (the Go spec allows fusing x*y + z
// and arm64 does it): the result is bit-identical to the generic path on
// every GOARCH. The loop is unrolled by four so that its speed does not
// hang on where the linker places it: the one-element body is 27 bytes,
// and placed across a 64-byte line it made a daemon GNN request ~12%
// slower on a 2-core Xeon.
func (s *Semiring) MulAddRow(out, in []float64, v float64) {
	in = in[:len(out)]
	if s.kind == plusTimes {
		x := 0
		for ; x+4 <= len(out); x += 4 {
			o, i := out[x:x+4:x+4], in[x:x+4:x+4]
			o[0] += float64(v * i[0])
			o[1] += float64(v * i[1])
			o[2] += float64(v * i[2])
			o[3] += float64(v * i[3])
		}
		for ; x < len(out); x++ {
			out[x] += float64(v * in[x])
		}
		return
	}
	for x := range out {
		out[x] = s.Add(out[x], s.Mul(v, in[x]))
	}
}

// MulAddRun applies a run of nonzeros that share one output row: for each
// j in order, out[x] = out[x] ⊕ (vals[j] ⊗ din[cols[j]·k + x]), k =
// len(out). It computes exactly what one MulAddRow per nonzero computes.
//
// Plus-times applies four nonzeros per pass over the row, out[x] =
// (((out[x] + v₁·a[x]) + v₂·b[x]) + v₃·c[x]) + v₄·d[x], so the row is
// loaded and stored once per four nonzeros instead of once per nonzero.
// The additions keep their left-to-right order and each product is
// rounded by its float64 conversion, so no multiply-add fuses and nothing
// reassociates: the result is bit-identical to the per-nonzero sequence.
func (s *Semiring) MulAddRun(out, din []float64, cols []int32, vals []float64) {
	k := len(out)
	if s.kind != plusTimes {
		for j, c := range cols {
			s.MulAddRow(out, din[int(c)*k:], vals[j])
		}
		return
	}
	j := 0
	for ; j+4 <= len(cols); j += 4 {
		a, b := din[int(cols[j])*k:][:k], din[int(cols[j+1])*k:][:k]
		c, d := din[int(cols[j+2])*k:][:k], din[int(cols[j+3])*k:][:k]
		v1, v2, v3, v4 := vals[j], vals[j+1], vals[j+2], vals[j+3]
		for x := range out {
			out[x] = out[x] + float64(v1*a[x]) + float64(v2*b[x]) + float64(v3*c[x]) + float64(v4*d[x])
		}
	}
	switch len(cols) - j {
	case 3:
		a, b, c := din[int(cols[j])*k:][:k], din[int(cols[j+1])*k:][:k], din[int(cols[j+2])*k:][:k]
		v1, v2, v3 := vals[j], vals[j+1], vals[j+2]
		for x := range out {
			out[x] = out[x] + float64(v1*a[x]) + float64(v2*b[x]) + float64(v3*c[x])
		}
	case 2:
		a, b := din[int(cols[j])*k:][:k], din[int(cols[j+1])*k:][:k]
		v1, v2 := vals[j], vals[j+1]
		for x := range out {
			out[x] = out[x] + float64(v1*a[x]) + float64(v2*b[x])
		}
	case 1:
		s.MulAddRow(out, din[int(cols[j])*k:], vals[j])
	}
}

// AddRow computes dst[x] = dst[x] ⊕ src[x] for every x: the merge of two
// partial outputs. src must be at least as long as dst.
func (s *Semiring) AddRow(dst, src []float64) {
	src = src[:len(dst)]
	if s.kind == plusTimes {
		for x := range dst {
			dst[x] += src[x]
		}
		return
	}
	for x := range dst {
		dst[x] = s.Add(dst[x], src[x])
	}
}

// PlusTimes is the standard arithmetic semiring (+, ×): plain SpMM.
func PlusTimes() Semiring {
	return Semiring{
		Name:        "plus-times",
		Add:         func(a, b float64) float64 { return a + b },
		Mul:         func(a, b float64) float64 { return a * b },
		AddIdentity: 0,
		OpsPerMAC:   2,
		kind:        plusTimes,
	}
}

// MinPlus is the tropical semiring (min, +), used for shortest-path style
// computations.
func MinPlus() Semiring {
	return Semiring{
		Name:        "min-plus",
		Add:         math.Min,
		Mul:         func(a, b float64) float64 { return a + b },
		AddIdentity: math.Inf(1),
		OpsPerMAC:   2,
	}
}

// MaxPlus is the (max, +) semiring.
func MaxPlus() Semiring {
	return Semiring{
		Name:        "max-plus",
		Add:         math.Max,
		Mul:         func(a, b float64) float64 { return a + b },
		AddIdentity: math.Inf(-1),
		OpsPerMAC:   2,
	}
}

// BoolOrAnd is the boolean (∨, ∧) semiring over {0,1}, used for reachability.
func BoolOrAnd() Semiring {
	return Semiring{
		Name: "bool-or-and",
		Add: func(a, b float64) float64 {
			if a != 0 || b != 0 {
				return 1
			}
			return 0
		},
		Mul: func(a, b float64) float64 {
			if a != 0 && b != 0 {
				return 1
			}
			return 0
		},
		AddIdentity: 0,
		OpsPerMAC:   2,
	}
}

// Scaled returns a copy of s whose OpsPerMAC is multiplied by factor ≥ 1 and
// whose Mul is iterated to actually perform the extra work. It models gSpMM
// monoids that are computationally heavier than the vanilla ones (paper
// §II-A, Fig 14). The numeric result equals the base semiring's; only the
// cost changes. The copy is generic, so the row kernels call its Mul and
// the extra work is really done.
func Scaled(s Semiring, factor int) Semiring {
	if factor < 1 {
		factor = 1
	}
	baseMul := s.Mul
	out := s
	out.kind = generic
	out.Name = s.Name + "-scaled"
	out.OpsPerMAC = s.OpsPerMAC * float64(factor)
	out.Mul = func(a, b float64) float64 {
		// Burn the extra arithmetic the heavier monoid would perform. Each
		// iteration recomputes the same value so results stay comparable.
		v := baseMul(a, b)
		for i := 1; i < factor; i++ {
			v = baseMul(a, b)
		}
		return v
	}
	return out
}
