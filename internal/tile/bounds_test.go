package tile

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

// TestPartitionRejectsOutOfBoundsCoords is the regression test for the
// crash on malformed input: a nonzero outside the declared dimensions used
// to panic with an index-out-of-range inside the counting pass. It must be
// a descriptive error instead.
func TestPartitionRejectsOutOfBoundsCoords(t *testing.T) {
	cases := []struct {
		name string
		r, c int32
	}{
		{"column past n", 5, 120},
		{"row past n", 120, 5},
		{"negative row", -1, 5},
		{"negative column", 5, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := sparse.NewCOO(100, 0)
			m.Append(tc.r, tc.c, 1)
			g, err := Partition(m, 32, 32)
			if err == nil {
				t.Fatalf("Partition accepted nonzero at (%d, %d) in a 100x100 matrix: %+v", tc.r, tc.c, g)
			}
			if !strings.Contains(err.Error(), "outside") {
				t.Fatalf("error %q does not describe the out-of-bounds nonzero", err)
			}
		})
	}
}

// TestPartitionParallelMatchesSerial pins the determinism contract of the
// parallel scatter and per-tile stat passes: the grid built with the
// worker pool enabled is deeply identical to the serial build. The inputs
// cover the divide path (32×48 tiles), the shift path (32×32), a tile
// side at least N (one tile column), and matrices of more than
// 2·32,768 nonzeros, which the scatter splits into chunks.
func TestPartitionParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type input struct{ n, nnz, th, tw int }
	var inputs []input
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(200)
		inputs = append(inputs, input{n, rng.Intn(6 * n), 32, 48})
	}
	inputs = append(inputs,
		input{200, 1000, 32, 32},
		input{200, 1000, 16, 200},
		input{300, 900, 512, 512},
		input{3000, 5*32768 + 17, 32, 32},
		input{3000, 2*32768 + 1, 96, 80},
		input{3000, 3 * 32768, 64, 4096},
	)
	for trial, in := range inputs {
		n, nnz := in.n, in.nnz
		m := sparse.NewCOO(n, nnz)
		for i := 0; i < nnz; i++ {
			m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64())
		}
		m.SortRowMajor()

		var serial, parallel *Grid
		var serr, perr error
		func() {
			defer par.SetWorkers(par.SetWorkers(1))
			serial, serr = Partition(m, in.th, in.tw)
		}()
		func() {
			defer par.SetWorkers(par.SetWorkers(8))
			parallel, perr = Partition(m, in.th, in.tw)
		}()
		if serr != nil || perr != nil {
			t.Fatalf("trial %d: serial err %v, parallel err %v", trial, serr, perr)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("trial %d: parallel grid differs from serial", trial)
		}
	}
}

// TestPartitionReportsLowestOutOfBounds places out-of-bounds nonzeros in
// two different scatter chunks and checks that the lower index is the one
// reported, with the serial message, at every worker count.
func TestPartitionReportsLowestOutOfBounds(t *testing.T) {
	const n, nnz = 1000, 4 * 32768
	rng := rand.New(rand.NewSource(9))
	m := sparse.NewCOO(n, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	m.SortRowMajor()
	// The last chunk and, at 2 and 4 workers, an earlier one.
	m.Cols[nnz-10] = n + 5
	m.Rows[nnz/4+3] = -2
	want := fmt.Sprintf("tile: nonzero %d at (-2, %d) outside the 1000x1000 matrix", nnz/4+3, m.Cols[nnz/4+3])
	for _, w := range []int{1, 2, 4} {
		func() {
			defer par.SetWorkers(par.SetWorkers(w))
			if _, err := Partition(m, 32, 32); err == nil || err.Error() != want {
				t.Fatalf("%d workers: error %v, want %q", w, err, want)
			}
		}()
	}
}

// TestRowMajorMatchesSort pins the scatter-built row-major view to
// slices.Sort of the packed keys at 1, 2 and 5 workers, on a matrix large
// enough to split into five chunks, checks that every key's tile holds
// it, and that a view rebuilt after ReleaseRowMajor is the same.
func TestRowMajorMatchesSort(t *testing.T) {
	const n, nnz = 2000, 5*32768 + 100
	rng := rand.New(rand.NewSource(13))
	m := sparse.NewCOO(n, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	m.SortRowMajor()
	m.DedupSum()
	for _, w := range []int{1, 2, 5} {
		func() {
			defer par.SetWorkers(par.SetWorkers(w))
			g, err := Partition(m, 64, 96)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]uint64, g.NNZ())
			for j := range want {
				want[j] = uint64(g.Rows[j])<<32 | uint64(g.Cols[j])
			}
			slices.Sort(want)
			keys, tileOf := g.RowMajor()
			if !slices.Equal(keys, want) {
				t.Fatalf("%d workers: RowMajor differs from the sorted packed keys", w)
			}
			// Released, the view is dropped, the slices already handed out
			// stay intact, and the next call rebuilds an equal view.
			g.ReleaseRowMajor()
			if g.rmKeys != nil || g.rmTile != nil {
				t.Fatalf("%d workers: ReleaseRowMajor kept the view", w)
			}
			again, againTile := g.RowMajor()
			if !slices.Equal(keys, want) || !slices.Equal(again, keys) || !slices.Equal(againTile, tileOf) {
				t.Fatalf("%d workers: the view rebuilt after a release differs", w)
			}
			for j, key := range keys {
				tl := &g.Tiles[tileOf[j]]
				if int(key>>32)/g.TileH != tl.TR || int(uint32(key))/g.TileW != tl.TC {
					t.Fatalf("%d workers: key %d (%d, %d) not in its tile (%d, %d)",
						w, j, key>>32, uint32(key), tl.TR, tl.TC)
				}
			}
		}()
	}
}
