package sparse

import "repro/internal/par"

// sortChunkMin is the fewest elements per chunk that Scatter and the
// packed sort hand to a worker: below it the fan-out costs more than the
// work it splits.
const sortChunkMin = 1 << 15

// sortChunks is the number of contiguous chunks a pool pass splits n
// elements into: one per par worker, none under sortChunkMin elements.
func sortChunks(n int) int { return max(1, min(par.Workers(), n/sortChunkMin)) }

// eachChunk runs fn(c, lo, hi) for the k contiguous ranges [lo, hi) that
// split [0, n) — on the calling goroutine when k is 1, else on the pool.
func eachChunk(n, k int, fn func(c, lo, hi int)) {
	if k == 1 {
		fn(0, 0, n)
		return
	}
	par.ForEach(k, func(c int) { fn(c, c*n/k, (c+1)*n/k) })
}

// Scatter is the stable bucket scatter of the plan path (DESIGN.md §9): it
// moves n elements into buckets [0, buckets), each bucket holding its
// elements in input order, and returns the buckets+1 offsets that delimit
// them. The elements split into sortChunks(n) contiguous chunks, each
// counted and then moved on the pool. The caller's arrays and bucket
// function live in two per-chunk callbacks, so nothing is called per
// element: count(lo, hi, hist) adds one to hist[b] per element of bucket
// b, and move(lo, hi, next) writes each element, in order, to slot
// next[b] and increments it. A count error stops the scatter before
// anything moves; the lowest chunk's error is returned.
//
// Stability: the exclusive prefix sum runs in (bucket, chunk) order and
// each chunk writes its own run of a bucket in input order, so the result
// is the one-chunk counting sort, bit for bit, at every worker count.
func Scatter(n, buckets int, count func(lo, hi int, hist []int64) error, move func(lo, hi int, next []int64)) ([]int64, error) {
	return scatter(n, buckets, sortChunks(n), count, move)
}

// scatter is Scatter over exactly k chunks (the test hook for chunking).
// One chunk calls count and move directly, so the serial pass allocates
// nothing for the pool.
func scatter(n, buckets, k int, count func(lo, hi int, hist []int64) error, move func(lo, hi int, next []int64)) ([]int64, error) {
	hist := make([]int64, k*buckets)
	if k == 1 {
		if err := count(0, n, hist); err != nil {
			return nil, err
		}
	} else if err := par.ForEachErr(k, func(c int) error {
		return count(c*n/k, (c+1)*n/k, hist[c*buckets:(c+1)*buckets])
	}); err != nil {
		return nil, err
	}
	ptr := make([]int64, buckets+1)
	sum := int64(0)
	for b := 0; b < buckets; b++ {
		ptr[b] = sum
		for c := b; c < len(hist); c += buckets {
			cnt := hist[c]
			hist[c] = sum
			sum += cnt
		}
	}
	ptr[buckets] = sum
	if k == 1 {
		move(0, n, hist)
	} else {
		par.ForEach(k, func(c int) { move(c*n/k, (c+1)*n/k, hist[c*buckets:(c+1)*buckets]) })
	}
	return ptr, nil
}
