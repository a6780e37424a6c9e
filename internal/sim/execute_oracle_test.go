package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// executeTwoBuffers is the functional kernel execute replaced, kept as its
// oracle: one full N×K buffer per pool, one MulAddRow per nonzero, then a
// merge of the hot buffer into the cold one with the additive monoid.
func executeTwoBuffers(g *tile.Grid, hot []bool, din *dense.Matrix, sr semiring.Semiring) *dense.Matrix {
	k := din.K
	coldBuf := dense.NewFilled(g.N, k, sr.AddIdentity)
	hotBuf := dense.NewFilled(g.N, k, sr.AddIdentity)
	for i := range g.Tiles {
		buf := coldBuf
		if hot[i] {
			buf = hotBuf
		}
		rows, cols, vals := g.TileNonzeros(i)
		for j := range rows {
			in := din.Data[int(cols[j])*k : int(cols[j])*k+k]
			sr.MulAddRow(buf.Data[int(rows[j])*k:int(rows[j])*k+k], in, vals[j])
		}
	}
	sr.AddRow(coldBuf.Data, hotBuf.Data)
	return coldBuf
}

// oracleGrid draws a tiling whose panels cover the cases the row-run kernel
// and the per-panel pool split distinguish: a ragged last panel, empty
// panels, and rows holding 1–9 nonzeros inside one tile. The assignment
// makes each panel all hot, all cold or mixed.
func oracleGrid(t *testing.T, rng *rand.Rand) (*tile.Grid, []bool) {
	t.Helper()
	const th = 8
	n := th*(3+rng.Intn(6)) + 1 + rng.Intn(th-1)
	m := sparse.NewCOO(n, 0)
	for r := 0; r < n; r++ {
		if (r/th)%3 == 1 && rng.Intn(2) == 0 {
			continue // some panels stay empty
		}
		for tc := 0; tc*th < n; tc++ {
			if rng.Intn(3) == 0 {
				continue
			}
			w := min(th, n-tc*th)
			for _, c := range rng.Perm(w)[:1+rng.Intn(min(9, w))] {
				m.Append(int32(r), int32(tc*th+c), rng.Float64()*4-2)
			}
		}
	}
	m.SortRowMajor()
	g, err := tile.Partition(m, th, th)
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]bool, len(g.Tiles))
	for tr := 0; tr < g.NumTR; tr++ {
		mode := rng.Intn(3) // 0 all cold, 1 all hot, 2 mixed
		for i := g.PanelStart[tr]; i < g.PanelStart[tr+1]; i++ {
			hot[i] = mode == 1 || mode == 2 && rng.Intn(2) == 0
		}
	}
	return g, hot
}

// TestExecuteMatchesTwoBufferOracle: the one-buffer, row-run execute is bit
// for bit the two-buffer, per-nonzero kernel it replaced, for plus-times
// and min-plus at one and two par workers, at row widths below, at and
// past the four-nonzero pass.
func TestExecuteMatchesTwoBufferOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g, hot := oracleGrid(t, rng)
		k := []int{1, 3, 4, 9}[trial%4]
		din := dense.NewRandom(rng, g.N, k)
		for _, sr := range []semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus()} {
			want := executeTwoBuffers(g, hot, din, sr)
			for _, w := range []int{1, 2} {
				prev := par.SetWorkers(w)
				got := execute(g, hot, din, sr)
				par.SetWorkers(prev)
				for x := range want.Data {
					if math.Float64bits(got.Data[x]) != math.Float64bits(want.Data[x]) {
						t.Fatalf("trial %d %s workers=%d: element %d = %v, oracle %v",
							trial, sr.Name, w, x, got.Data[x], want.Data[x])
					}
				}
			}
		}
	}
}
