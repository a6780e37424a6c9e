package sparse

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scatterOracle is the stable bucket order by its definition: for each
// bucket in turn, the indices of its elements in input order.
func scatterOracle(ids []int, buckets int) (order []int, ptr []int64) {
	ptr = make([]int64, buckets+1)
	for b := 0; b < buckets; b++ {
		for i, id := range ids {
			if id == b {
				order = append(order, i)
			}
		}
		ptr[b+1] = int64(len(order))
	}
	return order, ptr
}

// scatterIDs runs scatter over k chunks, moving each element's input index
// to its bucket.
func scatterIDs(ids []int, buckets, k int) ([]int, []int64, error) {
	out := make([]int, len(ids))
	ptr, err := scatter(len(ids), buckets, k, func(lo, hi int, hist []int64) error {
		for _, id := range ids[lo:hi] {
			hist[id]++
		}
		return nil
	}, func(lo, hi int, next []int64) {
		for i := lo; i < hi; i++ {
			out[next[ids[i]]] = i
			next[ids[i]]++
		}
	})
	return out, ptr, err
}

// TestScatterMatchesSerialOracle pins the chunked scatter to the
// definition of a stable bucket order at 1, 2 and 5 chunks, on the shapes
// that stress the (bucket, chunk) prefix: chunks with no elements, buckets
// with no elements, and every element in one bucket.
func TestScatterMatchesSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	draw := func(n, buckets int, id func(i int) int) ([]int, int) {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = id(i)
		}
		return ids, buckets
	}
	inputs := map[string]func() ([]int, int){
		"empty":      func() ([]int, int) { return draw(0, 4, nil) },
		"no buckets": func() ([]int, int) { return draw(0, 0, nil) },
		"one bucket": func() ([]int, int) { return draw(1000, 7, func(int) int { return 3 }) },
		"more buckets than elements": func() ([]int, int) {
			return draw(3, 100, func(int) int { return rng.Intn(100) })
		},
		"last bucket": func() ([]int, int) { return draw(500, 9, func(int) int { return 8 }) },
		"duplicates": func() ([]int, int) {
			return draw(10000, 5, func(int) int { return rng.Intn(5) })
		},
		"spread": func() ([]int, int) {
			return draw(3000, 256, func(int) int { return rng.Intn(256) })
		},
	}
	for name, input := range inputs {
		ids, buckets := input()
		want, wantPtr := scatterOracle(ids, buckets)
		for _, k := range []int{1, 2, 5} {
			got, ptr, err := scatterIDs(ids, buckets, k)
			if err != nil {
				t.Fatalf("%s, %d chunks: %v", name, k, err)
			}
			if !slices.Equal(ptr, wantPtr) {
				t.Fatalf("%s, %d chunks: bucket offsets %v, want %v", name, k, ptr, wantPtr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %d chunks: order differs from the stable bucket order", name, k)
			}
		}
	}
}

// TestScatterReportsLowestChunkError checks that when several chunks fail
// to count, the lowest chunk's error comes back and nothing moves.
func TestScatterReportsLowestChunkError(t *testing.T) {
	const n, k = 1000, 5
	bad := map[int]bool{350: true, 420: true, 900: true} // chunks 1, 2 and 4
	moved := false
	_, err := scatter(n, 1, k, func(lo, hi int, hist []int64) error {
		for i := lo; i < hi; i++ {
			if bad[i] {
				return fmt.Errorf("element %d", i)
			}
			hist[0]++
		}
		return nil
	}, func(int, int, []int64) { moved = true })
	if err == nil || err.Error() != "element 350" {
		t.Fatalf("error %v, want the lowest chunk's \"element 350\"", err)
	}
	if moved {
		t.Fatal("scatter moved elements after a failed count")
	}
	if _, err := scatter(0, 3, 1, func(int, int, []int64) error { return errors.New("empty") },
		func(int, int, []int64) {}); err == nil {
		t.Fatal("scatter dropped the error of an empty count")
	}
}
