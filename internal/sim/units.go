package sim

import (
	"math"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/tile"
)

// resetPool re-derives p from a worker description in place, keeping the
// unit backing array so a Runner rebuilds pools without allocating. A
// worker with no declared streaming limit is constrained only by the shared
// memory bandwidth.
func resetPool(p *pool, w *model.Worker) {
	p.name = w.Name
	p.workers = w.Count
	p.linkBW = w.MaxStreamBW
	p.perWorkerBW = math.Inf(1)
	if w.Count > 0 && w.MaxStreamBW > 0 {
		p.perWorkerBW = w.MaxStreamBW / float64(w.Count)
	}
	p.workerBW = nil
	p.units = p.units[:0]
}

// coldScratch is the cold-pool builder's reusable state: the filtered
// nonzero keys and the simulated per-PE cache hierarchy. The caches are
// rebuilt only when the architecture's geometry changes and reset (which is
// bit-identical to a fresh build) otherwise.
type coldScratch struct {
	nzs []uint64
	// lineBuf/lineBuf2 hold the private level's missed lines and the shared
	// level's re-misses during the two-pass fold replay (see buildColdPoolInto).
	lineBuf, lineBuf2 []uint64
	caches            []*cache
	shared            *cache
	// Geometry of the cached hierarchy.
	cacheBytes, cacheLine, sharedBytes, count int
}

// cachesFor returns the per-PE and shared caches for architecture a,
// reusing s's when the geometry matches. A nil scratch builds fresh ones.
func (s *coldScratch) cachesFor(a *arch.Arch, count int) ([]*cache, *cache) {
	if s != nil && s.count == count && s.cacheBytes == a.ColdCacheBytes &&
		s.cacheLine == a.ColdCacheLine && s.sharedBytes == a.SharedL2Bytes {
		for _, c := range s.caches {
			c.reset()
		}
		s.shared.reset()
		return s.caches, s.shared
	}
	caches := make([]*cache, count)
	for i := range caches {
		caches[i] = newCache(a.ColdCacheBytes, a.ColdCacheLine)
	}
	shared := newCache(a.SharedL2Bytes, a.ColdCacheLine)
	if s != nil {
		s.caches, s.shared = caches, shared
		s.cacheBytes, s.cacheLine = a.ColdCacheBytes, a.ColdCacheLine
		s.sharedBytes, s.count = a.SharedL2Bytes, count
	}
	return caches, shared
}

// buildHotPool converts the hot tiles into work units for the hot workers:
// a Figure 6(b) tiled traversal in panel-major order. Streaming workers
// fetch the full Din tile per tile; Dout follows the worker's reuse type,
// with inter-tile reuse charging the panel's rows once per panel (stream in
// on the panel's first hot tile, write back on its last). For SDDMM the
// write-back is the sparse output (one value per nonzero).
func buildHotPool(g *tile.Grid, hot []bool, a *arch.Arch, prm model.Params) *pool {
	p := &pool{}
	buildHotPoolInto(p, g, hot, a, prm)
	return p
}

// buildHotPoolInto is buildHotPool over a caller-owned pool whose unit
// array is reused across runs (the Runner path).
func buildHotPoolInto(p *pool, g *tile.Grid, hot []bool, a *arch.Arch, prm model.Params) {
	w := &a.Hot
	resetPool(p, w)
	rowBytes := float64(prm.K * w.ElemBytes)

	for tr := 0; tr < g.NumTR; tr++ {
		panel := g.Panel(tr)
		base := g.PanelStart[tr]
		firstHot, lastHot := -1, -1
		for i := range panel {
			if hot[base+i] {
				if firstHot < 0 {
					firstHot = i
				}
				lastHot = i
			}
		}
		if firstHot < 0 {
			continue
		}
		lo, hi := g.PanelRows(tr)
		panelH := hi - lo
		for i := range panel {
			if !hot[base+i] {
				continue
			}
			t := &panel[i]
			nnz := t.NNZ()
			tileW := g.TileW
			if (t.TC+1)*g.TileW > g.N {
				tileW = g.N - t.TC*g.TileW
			}

			stream := float64(model.SparseBytesAccessed(w.Format, nnz, panelH, w.IdxBytes, w.ElemBytes))
			switch w.DinReuse {
			case model.ReuseIntraStream:
				stream += float64(tileW) * rowBytes
			case model.ReuseIntraDemand:
				stream += float64(t.UniqCols) * rowBytes
			case model.ReuseNone:
				stream += float64(nnz) * rowBytes
			}

			var doutRead, doutWrite float64
			switch w.DoutReuse {
			case model.ReuseInter:
				if i == firstHot {
					doutRead = float64(panelH) * rowBytes
				}
				if i == lastHot {
					doutWrite = float64(panelH) * rowBytes
				}
			case model.ReuseIntraStream:
				doutRead = float64(panelH) * rowBytes
				doutWrite = float64(panelH) * rowBytes
			case model.ReuseIntraDemand:
				doutRead = float64(t.UniqRows) * rowBytes
				doutWrite = float64(t.UniqRows) * rowBytes
			case model.ReuseNone:
				doutRead = float64(nnz) * rowBytes
				doutWrite = float64(nnz) * rowBytes
			}
			if prm.Kernel == model.KernelSDDMM {
				doutWrite = float64(nnz * w.ElemBytes)
			}

			compute := w.ComputeTime(nnz, prm.K, prm.OpsPerMAC)
			flops := float64(nnz) * float64(prm.K) * prm.OpsPerMAC
			u := unit{flops: flops}
			// The streamer overlaps input streams and compute; the
			// write-back drains afterwards (model.StreamOverlap). Fully
			// overlapping workers fold everything into one phase.
			if len(w.OverlapGroups) == 1 {
				u.addPhase(phase{compute: compute, bytes: stream + doutRead + doutWrite})
			} else {
				u.addPhase(phase{compute: compute, bytes: stream + doutRead})
				u.addPhase(phase{bytes: doutWrite})
			}
			p.units = append(p.units, u)
		}
	}
}

// buildColdPool converts the cold nonzeros into row-chunk work units for
// the cold workers: a Figure 6(a) untiled row-ordered traversal in chunks
// of a.ChunkRows consecutive rows (§VII-A). Din accesses go through each
// PE's simulated cache — the reuse source the analytical model ignores —
// while the sparse input and Dout bypass it (BBF-style).
func buildColdPool(g *tile.Grid, hot []bool, a *arch.Arch, prm model.Params) *pool {
	p := &pool{}
	buildColdPoolInto(p, nil, g, hot, a, prm)
	return p
}

// buildColdPoolInto is buildColdPool over a caller-owned pool and scratch
// (either may carry reusable capacity; a nil scratch allocates fresh).
func buildColdPoolInto(p *pool, s *coldScratch, g *tile.Grid, hot []bool, a *arch.Arch, prm model.Params) {
	w := &a.Cold
	resetPool(p, w)
	rowBytes := prm.K * w.ElemBytes

	// All-hot assignments (the HotOnly strategy) have no cold work at all;
	// skip the O(nnz) filter below on the cheap O(tiles) evidence.
	anyCold := false
	for _, h := range hot {
		if !h {
			anyCold = true
			break
		}
	}
	if !anyCold {
		return
	}

	// Gather the cold nonzeros in row-major order by filtering the grid's
	// cached row-major view: coordinates arrive packed into one uint64 key
	// per nonzero (row in the high word) in globally (r, c)-ascending order,
	// so selecting the cold subset preserves exactly the order the old
	// gather-then-sort produced — without re-sorting per run, which used to
	// dominate sweep time.
	keys, tileOf := g.RowMajor()
	var nzs []uint64
	if s != nil {
		nzs = s.nzs[:0]
	}
	if cap(nzs) < len(keys) {
		nzs = make([]uint64, 0, len(keys))
	}
	for i, k := range keys {
		if !hot[tileOf[i]] {
			nzs = append(nzs, k)
		}
	}
	if s != nil {
		s.nzs = nzs
	}
	if len(nzs) == 0 {
		return
	}

	chunkRows := a.ChunkRows
	if chunkRows <= 0 {
		chunkRows = 64
	}
	// Round-robin static chunk placement onto per-PE caches, optionally
	// backed by a shared last-level cache (the §X future-work extension):
	// private misses probe the shared level before reaching main memory.
	caches, shared := s.cachesFor(a, w.Count)

	nzRow := func(k uint64) int32 { return int32(k >> 32) }
	nzCol := func(k uint64) int32 { return int32(uint32(k)) }
	var foldPrivate *cache
	if w.Count > 0 {
		foldPrivate = caches[0]
	}
	foldL := dinFoldFactor(foldPrivate, shared, rowBytes)
	// The chunk-boundary scan divides every nonzero's row by chunkRows; for
	// the power-of-two chunk sizes every preset uses, a shift replaces the
	// integer division on that per-nonzero path (rows are non-negative, so
	// the two agree exactly).
	chunkShift := -1
	if chunkRows&(chunkRows-1) == 0 {
		chunkShift = bits.TrailingZeros(uint(chunkRows))
	}
	var lineBuf, lineBuf2 []uint64
	if s != nil {
		lineBuf, lineBuf2 = s.lineBuf, s.lineBuf2
	}
	start := 0
	chunkIdx := 0
	for start < len(nzs) {
		chunkBase := int(nzRow(nzs[start])) / chunkRows
		if chunkShift >= 0 {
			chunkBase = int(nzRow(nzs[start])) >> chunkShift
		}
		end := start
		rowsInChunk := 0
		lastRow := int32(-1)
		for end < len(nzs) {
			r := nzRow(nzs[end])
			cb := int(r) / chunkRows
			if chunkShift >= 0 {
				cb = int(r) >> chunkShift
			}
			if cb != chunkBase {
				break
			}
			if r != lastRow {
				rowsInChunk++
				lastRow = r
			}
			end++
		}
		nnz := end - start

		var c *cache
		if w.Count > 0 {
			c = caches[chunkIdx%w.Count]
		}
		dinBytes := 0
		if w.DinReuse == model.ReuseNone || w.DinReuse == model.ReuseIntraDemand {
			switch {
			case c == nil && shared == nil:
				dinBytes = nnz * rowBytes
			case foldL > 1:
				// Line-class folding: each Din row spans foldL lines that
				// live in disjoint, isomorphic set classes with identical
				// access sequences, so one line per row stands in for all of
				// them (see dinFoldFactor for the argument). Bit-identical
				// to probing every line, at 1/foldL the cost. The row's
				// class-0 line number is col·foldL, and a row that misses
				// through the hierarchy charges its full foldL·lineSize =
				// rowBytes.
				//
				// The replay runs in two passes — the private level over the
				// chunk's keys collecting missed lines, then the shared
				// level over those misses — instead of interleaving the two
				// probes per nonzero. The private cache's decisions never
				// depend on the shared level, and the shared level sees
				// exactly the private misses in access order either way, so
				// the split is bit-identical; it exists to run each level as
				// one tight loop (cache.missLinesFold).
				first := c
				if first == nil {
					first = shared
				}
				lineBuf = first.missLinesFold(nzs[start:end], uint64(foldL), lineBuf)
				miss := lineBuf
				if c != nil && shared != nil {
					lineBuf2 = shared.missLines(lineBuf, lineBuf2)
					miss = lineBuf2
				}
				dinBytes = len(miss) * rowBytes
			default:
				for i := start; i < end; i++ {
					addr := uint64(nzCol(nzs[i])) * uint64(rowBytes)
					dinBytes += missThrough(c, shared, addr, rowBytes)
				}
			}
		}
		if w.DinReuse == model.ReuseIntraStream {
			dinBytes = chunkRows * rowBytes // stream a full stripe
		}

		aBytes := model.SparseBytesAccessed(w.Format, nnz, rowsInChunk, w.IdxBytes, w.ElemBytes)
		// Dout: the chunk's rows are streamed through the BBF once
		// (read-modify-write), regardless of inter-tile reuse bookkeeping.
		// SDDMM reads its U rows once and writes one value per nonzero.
		doutBytes := 2 * rowsInChunk * rowBytes
		if prm.Kernel == model.KernelSDDMM {
			doutBytes = rowsInChunk*rowBytes + nnz*w.ElemBytes
		}

		compute := w.ComputeTime(nnz, prm.K, prm.OpsPerMAC)
		flops := float64(nnz) * float64(prm.K) * prm.OpsPerMAC
		u := unit{flops: flops}
		total := float64(aBytes + dinBytes + doutBytes)
		if len(w.OverlapGroups) == 1 {
			u.addPhase(phase{compute: compute, bytes: total})
		} else {
			u.addPhase(phase{compute: compute, bytes: float64(aBytes+dinBytes) + float64(rowsInChunk*rowBytes)})
			u.addPhase(phase{bytes: float64(rowsInChunk * rowBytes)})
		}
		p.units = append(p.units, u)
		start = end
		chunkIdx++
	}
	if s != nil {
		s.lineBuf, s.lineBuf2 = lineBuf, lineBuf2
	}
}
