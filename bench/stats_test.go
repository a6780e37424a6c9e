package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {95, 4.8}, {100, 5}, {25, 2},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values is not NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, 1.6, 7.15},
		{[]float64{5, 1, 4, 2, 3, 8, 7}, 2, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// bySeedOf keys xs by seed 1, 2, ...
func bySeedOf(xs []float64) map[int64]float64 {
	out := map[int64]float64{}
	for i, x := range xs {
		out[int64(i+1)] = x
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		m      metricDecl
		change []float64
		want   string
	}{
		{lower, shift(base, 0.8), "improved"},
		{lower, shift(base, 1.02), "no worse"},
		{lower, shift(base, 1.3), "worse"},
		{higher, shift(base, 1.3), "improved"},
		{higher, shift(base, 0.7), "worse"},
		{lower, []float64{60, 140, 70, 130, 100, 65, 135, 100, 75, 125}, "unresolved"},
	} {
		if got := judge(c.m, bySeedOf(base), bySeedOf(c.change)).verdict; got != c.want {
			t.Errorf("judge(%s, %v) = %s, want %s", c.m.Better, c.change, got, c.want)
		}
	}
}

// TestJudgePairsBySeed drops one seed from the change side: the pairs are
// the nine shared seeds, not the first nine values of each side.
func TestJudgePairsBySeed(t *testing.T) {
	m := metricDecl{Name: "p50_ms", Better: "lower", Bound: 0.25}
	base := bySeedOf([]float64{100, 130, 100, 130, 100, 130, 100, 130, 100, 130})
	change := map[int64]float64{}
	for seed, x := range base {
		if seed != 1 {
			change[seed] = x * 0.97
		}
	}
	v := judge(m, base, change)
	if v.pairs != 9 || v.wins != 9 {
		t.Errorf("wins %d of %d pairs, want 9 of 9", v.wins, v.pairs)
	}
	if len(v.base) != 10 || len(v.change) != 9 {
		t.Errorf("%d base and %d change values, want 10 and 9", len(v.base), len(v.change))
	}
	if v := judge(m, base, map[int64]float64{11: 50, 12: 50}); v.pairs != 0 || v.verdict == "improved" {
		t.Errorf("no shared seeds: %d pairs, verdict %s; want 0 pairs and no improvement", v.pairs, v.verdict)
	}
}
