// Package sim is the heterogeneous-accelerator simulator substituting for
// the paper's SST+DRAMSim3 and Sniper-based PIUMA simulators (§VII-A,
// DESIGN.md §2). It is a fluid event-driven model: each worker advances
// through work units (tiles for the hot streamers, row chunks for the cold
// workers) whose compute-cycle and memory-byte demands are derived from the
// simulated microarchitecture — including the per-PE caches whose reuse the
// analytical model deliberately ignores. Memory bandwidth is a shared
// resource allocated max-min fairly among active workers. The simulator
// also executes SpMM functionally so every run is checked against the
// reference kernel.
package sim

// cache is a set-associative LRU cache model used for the cold workers'
// Din accesses (SPADE's per-PE L1, PIUMA's MTP cache). The sparse input and
// Dout bypass it (SPADE's BBF / PIUMA's streaming engines).
type cache struct {
	sets     int
	ways     int
	lineSize int
	// Fast-geometry fields: when the line size (resp. set count) is a power
	// of two — the overwhelmingly common configuration — address-to-line
	// and line-to-set mapping use a shift (resp. mask) instead of integer
	// division, which sits on the cold-pool construction hot path (one
	// probe per nonzero per dense row line). The mapping is identical to
	// the division it replaces.
	lineShift int // log2(lineSize); -1 when lineSize is not a power of two
	setMask   uint64
	setPow2   bool
	// tags[set*ways:(set+1)*ways] holds one set's line addresses + 1
	// (0 = invalid), most recently used first: the order is the LRU state,
	// so the last way is the victim and invalid ways collect at the tail.
	tags []uint64
}

// newCache builds a cache of the given total capacity; returns nil when the
// capacity is zero (cache disabled).
func newCache(capacityBytes, lineSize int) *cache {
	if capacityBytes <= 0 || lineSize <= 0 {
		return nil
	}
	const ways = 8
	lines := capacityBytes / lineSize
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c := &cache{
		sets:      sets,
		ways:      ways,
		lineSize:  lineSize,
		lineShift: -1,
		tags:      make([]uint64, sets*ways),
	}
	if lineSize&(lineSize-1) == 0 {
		for s := lineSize; s > 1; s >>= 1 {
			c.lineShift++
		}
		c.lineShift++
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
		c.setPow2 = true
	}
	return c
}

// reset restores the cache to its just-built state — every line invalid —
// without reallocating, so a Runner reuses the model across runs. A reset
// cache behaves bit-identically to a fresh newCache of the same geometry.
func (c *cache) reset() {
	if c == nil {
		return
	}
	clear(c.tags)
}

// lineOf maps a byte address to its line number.
func (c *cache) lineOf(addr uint64) uint64 {
	if c.lineShift >= 0 {
		return addr >> uint(c.lineShift)
	}
	return addr / uint64(c.lineSize)
}

// touch probes one most-recently-used-first set for tag and moves tag to
// the front, reporting whether it was already present. One pass shifts
// each scanned way down by one slot: on a hit the shift stops at the
// tag's old slot (a rotation), on a miss it runs off the end, dropping
// the last way — the LRU line, or an invalid way while the set is not
// yet full.
func touch(set []uint64, tag uint64) bool {
	prev := tag
	for w, t := range set {
		set[w] = prev
		if t == tag {
			return true
		}
		prev = t
	}
	return false
}

// accessLine touches line (a line number, not a byte address) and reports
// whether it hit.
func (c *cache) accessLine(line uint64) bool {
	var set int
	if c.setPow2 {
		set = int(line & c.setMask)
	} else {
		set = int(line % uint64(c.sets))
	}
	base := set * c.ways
	return touch(c.tags[base:base+c.ways], line+1)
}

// missLinesFold probes the class-0 line (col·foldL) of every packed
// (row, col) key through c and appends each missed line, in key order, to
// out (which is reset to empty first and returned): accessLine(col·foldL)
// once per key, as one loop that accessLine and touch inline into. It runs
// on the cold-pool construction hot path, one probe per cold nonzero per
// strategy.
func (c *cache) missLinesFold(nzs []uint64, foldL uint64, out []uint64) []uint64 {
	out = out[:0]
	for _, k := range nzs {
		line := uint64(uint32(k)) * foldL
		if !c.accessLine(line) {
			out = append(out, line)
		}
	}
	return out
}

// missLines is missLinesFold over already-computed line numbers: it probes
// each line through c (the shared level re-probing the private level's
// misses) and appends the lines that miss again to out (reset first).
func (c *cache) missLines(lines []uint64, out []uint64) []uint64 {
	out = out[:0]
	for _, line := range lines {
		if !c.accessLine(line) {
			out = append(out, line)
		}
	}
	return out
}

// access touches the line containing byte address addr and reports whether
// it hit.
func (c *cache) access(addr uint64) bool {
	return c.accessLine(c.lineOf(addr))
}

// accessRange touches every line of [addr, addr+n) and returns the number
// of bytes that missed (whole missing lines).
func (c *cache) accessRange(addr uint64, n int) int {
	if c == nil {
		return n
	}
	missed := 0
	first := c.lineOf(addr)
	last := c.lineOf(addr + uint64(n) - 1)
	for line := first; line <= last; line++ {
		if !c.accessLine(line) {
			missed += c.lineSize
		}
	}
	return missed
}

// dinFoldFactor reports the line-class fold factor L for Din row accesses of
// rowBytes through the (private, shared) hierarchy: when it returns L > 1,
// simulating a single line per row and multiplying the missed bytes by L is
// bit-identical to probing all L lines of the row.
//
// Why this is exact: every Din access in the cold builder starts at
// addr = col·rowBytes, so the row's lines are numbers r·L+j for j in [0,L).
// With power-of-two set counts that are multiples of L, the set index
// (r·L+j) & mask = ((r·L) & mask) | j — class j occupies its own disjoint
// group of sets, in every level of the hierarchy. Across rows, class j sees
// the access sequence r₁,r₂,… — the same sequence for every j, and LRU
// decisions depend only on the order of accesses within a set (each set's
// recency order is its whole state), so all L classes replay identical
// hit/miss and eviction sequences. Misses filter identically into the shared level, where
// the same disjointness holds. One class therefore stands in for all L.
//
// Returns 1 (no folding) whenever any condition fails: non-power-of-two
// geometry anywhere, mismatched line sizes, or rowBytes not a power-of-two
// multiple of the line size.
func dinFoldFactor(private, shared *cache, rowBytes int) int {
	lineSize := 0
	for _, c := range [2]*cache{private, shared} {
		if c == nil {
			continue
		}
		if c.lineShift < 0 || !c.setPow2 {
			return 1
		}
		if lineSize == 0 {
			lineSize = c.lineSize
		} else if c.lineSize != lineSize {
			return 1
		}
	}
	if lineSize <= 0 || rowBytes <= 0 || rowBytes%lineSize != 0 {
		return 1
	}
	l := rowBytes / lineSize
	if l <= 1 || l&(l-1) != 0 {
		return 1
	}
	for _, c := range [2]*cache{private, shared} {
		if c != nil && c.sets%l != 0 {
			return 1
		}
	}
	return l
}

// missThrough touches [addr, addr+n) through a two-level hierarchy: lines
// that miss in the private cache probe the shared level, and only lines
// missing in both are charged to main memory. Either level may be nil.
func missThrough(private, shared *cache, addr uint64, n int) int {
	if private == nil && shared == nil {
		return n
	}
	if shared == nil {
		return private.accessRange(addr, n)
	}
	if private == nil {
		return shared.accessRange(addr, n)
	}
	missed := 0
	first := private.lineOf(addr)
	last := private.lineOf(addr + uint64(n) - 1)
	for line := first; line <= last; line++ {
		if private.accessLine(line) {
			continue
		}
		if !shared.access(line * uint64(private.lineSize)) {
			missed += private.lineSize
		}
	}
	return missed
}
