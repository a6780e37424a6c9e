package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stampCache is the stamp-based LRU model the move-to-front cache replaced,
// kept as an independent oracle: tags in fixed ways, one last-use stamp per
// way from a per-cache clock, and the first way with the minimal stamp as
// the victim (invalid ways hold stamp 0, so they fill first).
type stampCache struct {
	sets, ways, lineSize int
	tags, lru            []uint64
	clock                uint64
}

func newStampCache(capacityBytes, lineSize int) *stampCache {
	if capacityBytes <= 0 || lineSize <= 0 {
		return nil
	}
	const ways = 8
	sets := max(1, capacityBytes/lineSize/ways)
	return &stampCache{
		sets: sets, ways: ways, lineSize: lineSize,
		tags: make([]uint64, sets*ways), lru: make([]uint64, sets*ways),
	}
}

func (c *stampCache) accessLine(line uint64) bool {
	base := int(line%uint64(c.sets)) * c.ways
	c.clock++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			c.lru[base+w] = c.clock
			return true
		}
	}
	victim := 0
	for w := 1; w < c.ways; w++ {
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = line + 1
	c.lru[base+victim] = c.clock
	return false
}

func (c *stampCache) accessRange(addr uint64, n int) int {
	if c == nil {
		return n
	}
	missed := 0
	for line := addr / uint64(c.lineSize); line <= (addr+uint64(n)-1)/uint64(c.lineSize); line++ {
		if !c.accessLine(line) {
			missed += c.lineSize
		}
	}
	return missed
}

func stampMissThrough(private, shared *stampCache, addr uint64, n int) int {
	switch {
	case private == nil:
		return shared.accessRange(addr, n)
	case shared == nil:
		return private.accessRange(addr, n)
	}
	missed := 0
	for line := addr / uint64(private.lineSize); line <= (addr+uint64(n)-1)/uint64(private.lineSize); line++ {
		if !private.accessLine(line) && !shared.accessLine(line*uint64(private.lineSize)/uint64(shared.lineSize)) {
			missed += private.lineSize
		}
	}
	return missed
}

// cacheGeometries covers the shapes the model takes: 8-way power-of-two
// sets (the fast path), non-power-of-two sets, a single set, and a
// non-power-of-two line size.
var cacheGeometries = []struct {
	name        string
	bytes, line int
}{
	{"pow2-sets", 4096, 64},   // 8 sets
	{"odd-sets", 3 * 512, 64}, // 3 sets
	{"one-set", 512, 64},      // 1 set
	{"odd-line", 4096, 48},    // 10 sets, division mapping
}

// TestCacheMatchesStampOracle drives identical random line sequences —
// several times the capacity, so every set evicts — through the
// move-to-front cache and the stamp oracle, one access at a time, and
// demands the same hit or miss on every access.
func TestCacheMatchesStampOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, g := range cacheGeometries {
		t.Run(g.name, func(t *testing.T) {
			c, o := newCache(g.bytes, g.line), newStampCache(g.bytes, g.line)
			span := 3 * c.sets * c.ways
			misses := 0
			for i := 0; i < 20000; i++ {
				line := uint64(rng.Intn(span))
				if got, want := c.accessLine(line), o.accessLine(line); got != want {
					t.Fatalf("access %d (line %d): hit=%v, oracle %v", i, line, got, want)
				}
				if !c.accessLine(line) || !o.accessLine(line) {
					t.Fatalf("access %d: immediate re-access of line %d missed", i, line)
				}
				n := 1 + rng.Intn(3*g.line)
				addr := uint64(rng.Intn(span * g.line))
				got, want := c.accessRange(addr, n), o.accessRange(addr, n)
				if got != want {
					t.Fatalf("range %d [%d,+%d): missed %d bytes, oracle %d", i, addr, n, got, want)
				}
				misses += got
			}
			if misses == 0 {
				t.Fatal("degenerate sequence: no misses")
			}
		})
	}
}

// TestCacheBatchProbesMatchStampOracle checks the batched probes the cold
// builder uses — missLinesFold over packed keys and missLines over line
// numbers — against the oracle probing one line at a time, chunk by chunk
// on one long-lived cache so state carries across batches.
func TestCacheBatchProbesMatchStampOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, g := range cacheGeometries {
		for _, foldL := range []uint64{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/fold%d", g.name, foldL), func(t *testing.T) {
				c, o := newCache(g.bytes, g.line), newStampCache(g.bytes, g.line)
				c2, o2 := newCache(g.bytes, g.line), newStampCache(g.bytes, g.line)
				span := 3 * c.sets * c.ways
				var out, out2 []uint64
				for chunk := 0; chunk < 200; chunk++ {
					nzs := make([]uint64, rng.Intn(64))
					for i := range nzs {
						nzs[i] = uint64(rng.Intn(span))<<32 | uint64(rng.Intn(span))
					}
					out = c.missLinesFold(nzs, foldL, out)
					var want []uint64
					for _, k := range nzs {
						if line := uint64(uint32(k)) * foldL; !o.accessLine(line) {
							want = append(want, line)
						}
					}
					if !slices.Equal(out, want) {
						t.Fatalf("chunk %d: missLinesFold %v, oracle %v", chunk, out, want)
					}
					out2 = c2.missLines(out, out2)
					var want2 []uint64
					for _, line := range want {
						if !o2.accessLine(line) {
							want2 = append(want2, line)
						}
					}
					if !slices.Equal(out2, want2) {
						t.Fatalf("chunk %d: missLines %v, oracle %v", chunk, out2, want2)
					}
				}
			})
		}
	}
}

// TestMissThroughMatchesStampOracle runs the two-level hierarchy —
// shared-only, private-only and private+shared — against the oracle
// hierarchy on identical row-access sequences.
func TestMissThroughMatchesStampOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, g := range []struct {
		name            string
		priv, shar, row int
	}{
		{"shared-only", 0, 16384, 256},
		{"private-only", 2048, 0, 128},
		{"private+shared", 2048, 16384, 256},
		{"odd-sets", 3 * 512, 5 * 512, 192},
	} {
		t.Run(g.name, func(t *testing.T) {
			p, s := newCache(g.priv, 64), newCache(g.shar, 64)
			oPriv, oShar := newStampCache(g.priv, 64), newStampCache(g.shar, 64)
			rows := 2*(g.priv+g.shar)/g.row + 16
			total := 0
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(rows) * g.row)
				got, want := missThrough(p, s, addr, g.row), stampMissThrough(oPriv, oShar, addr, g.row)
				if got != want {
					t.Fatalf("access %d (addr %d): missed %d bytes, oracle %d", i, addr, got, want)
				}
				total += got
			}
			if total == 0 {
				t.Fatal("degenerate sequence: no misses")
			}
		})
	}
}
