package hotcore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/tile"
)

// PlanWireVersion is the layout version WritePlan stamps on every plan.
// ReadPlan rejects any other version, so a plan file or cache spill written
// under an older layout is never decoded into a wrong or empty plan; such
// plans must be rebuilt.
//
// Version 3 is the fixed little-endian layout below, bounded and
// checksummed. Version 2 gob-encoded the grid and the assignment, and
// version 1 (unversioned gob) also stored both sections.
const PlanWireVersion = 3

// The v3 layout (DESIGN.md §19), every integer little-endian:
//
//	magic "HTPL", version uint32
//	header: headerWords uint64 words, indexed by the w* constants
//	tiles:       nTiles × 6 int64 (TR, TC, Start, End, UniqRows, UniqCols)
//	panel starts nPanels × int64
//	rows, cols:  nRows, nCols × int32
//	vals:        nVals × float64 bits
//	assignment:  ⌈nHot/8⌉ bytes, tile i at bit i%8 of byte i/8, padding zero
//	CRC-32C (Castagnoli) uint32 of every byte before it
const planMagic = "HTPL"

// Header word indices.
const (
	wN = iota
	wTileH
	wTileW
	wNumTR
	wNumTC
	wHeuristic
	wFlags
	wPredicted
	wHotTime
	wColdTime
	wHotBytes
	wColdBytes
	wTiles
	wPanels
	wRows
	wCols
	wVals
	wHot
	headerWords
)

// Flag bits of the wFlags word; any other bit is rejected.
const (
	flagSerial = 1 << iota
	flagHotCSR
	flagColdCSR
	flagsKnown = flagSerial | flagHotCSR | flagColdCSR
)

const (
	preambleLen = len(planMagic) + 4
	headerLen   = 8 * headerWords
	tileLen     = 6 * 8
	trailerLen  = 4
	// wireChunk sizes the one buffer WritePlan encodes through and caps
	// the one ReadPlan decodes through.
	wireChunk = 32 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// planWire is the wire form of a Prep: the paper's workflow stores the
// decision once (e.g. during GNN training) and reuses it later (inference)
// without re-running the scan/model/partition pipeline (§VI-B). It holds
// the tiling grid, the assignment and the two section formats; the
// sections are a deterministic function of these (Formats) and are not
// stored, so the stream carries one copy of each nonzero.
type planWire struct {
	N            int
	TileH, TileW int
	NumTR, NumTC int
	Tiles        []tile.Tile
	PanelStart   []int
	Rows         []int32
	Cols         []int32
	Vals         []float64

	Hot       []bool
	Heuristic partition.Heuristic
	Serial    bool
	Predicted float64
	Totals    partition.Totals

	// The section formats: whether the hot tiles carry CSR row pointers
	// and whether the cold section is CSR rather than COO.
	HotIsCSR, ColdIsCSR bool
}

// WritePlan serializes a preprocessing plan. Timings are not persisted
// (they describe the machine that ran the pipeline, not the plan). The
// plan streams into w through one small buffer; a w that can Grow (a
// bytes.Buffer) is first grown by the exact encoded size.
func WritePlan(w io.Writer, p *Prep) error {
	if p == nil || p.Grid == nil {
		return fmt.Errorf("hotcore: nil plan")
	}
	wire := wireOf(p)
	if gw, ok := w.(interface{ Grow(int) }); ok {
		gw.Grow(wire.size())
	}
	return wire.encode(w)
}

// WireSize is the length of p's wire form: the bytes WritePlan writes.
func (p *Prep) WireSize() int {
	wire := wireOf(p)
	return wire.size()
}

// wireOf lays p out as its wire fields.
func wireOf(p *Prep) planWire {
	g := p.Grid
	return planWire{
		N:          g.N,
		TileH:      g.TileH,
		TileW:      g.TileW,
		NumTR:      g.NumTR,
		NumTC:      g.NumTC,
		Tiles:      g.Tiles,
		PanelStart: g.PanelStart,
		Rows:       g.Rows,
		Cols:       g.Cols,
		Vals:       g.Vals,
		Hot:        p.Partition.Hot,
		Heuristic:  p.Partition.Heuristic,
		Serial:     p.Partition.Serial,
		Predicted:  p.Partition.Predicted,
		Totals:     p.Partition.Totals,
		HotIsCSR:   p.HotFormat == model.FormatCSR,
		ColdIsCSR:  p.ColdFormat == model.FormatCSR,
	}
}

// ReadPlan deserializes a plan written by WritePlan: it bounds every
// declared count by the bytes left, checks the checksum, validates the
// grid and checks that the assignment covers its tiles.
func ReadPlan(r io.Reader) (*Prep, error) {
	wire, err := decodeWire(r)
	if err != nil {
		return nil, err
	}
	g := &tile.Grid{
		N:          wire.N,
		TileH:      wire.TileH,
		TileW:      wire.TileW,
		NumTR:      wire.NumTR,
		NumTC:      wire.NumTC,
		Tiles:      wire.Tiles,
		PanelStart: wire.PanelStart,
		Rows:       wire.Rows,
		Cols:       wire.Cols,
		Vals:       wire.Vals,
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("hotcore: stored grid invalid: %w", err)
	}
	if len(wire.Hot) != len(g.Tiles) {
		return nil, fmt.Errorf("hotcore: stored assignment length %d, grid has %d tiles",
			len(wire.Hot), len(g.Tiles))
	}
	return &Prep{
		Grid: g,
		Partition: partition.Result{
			Hot:       wire.Hot,
			Heuristic: wire.Heuristic,
			Serial:    wire.Serial,
			Predicted: wire.Predicted,
			Totals:    wire.Totals,
		},
		HotFormat:  format(wire.HotIsCSR),
		ColdFormat: format(wire.ColdIsCSR),
	}, nil
}

// format is the sparse format a wire flag names.
func format(csr bool) model.SparseFormat {
	if csr {
		return model.FormatCSR
	}
	return model.FormatCOO
}

// size returns the encoded length of w in bytes.
func (w *planWire) size() int {
	return preambleLen + headerLen + tileLen*len(w.Tiles) + 8*len(w.PanelStart) +
		4*len(w.Rows) + 4*len(w.Cols) + 8*len(w.Vals) + (len(w.Hot)+7)/8 + trailerLen
}

// encode writes w in the v3 layout.
func (w *planWire) encode(dst io.Writer) error {
	e := &wireWriter{w: dst, buf: make([]byte, 0, wireChunk)}
	b := e.next(preambleLen + headerLen)
	copy(b, planMagic)
	binary.LittleEndian.PutUint32(b[len(planMagic):], PlanWireVersion)
	var flags uint64
	if w.Serial {
		flags |= flagSerial
	}
	if w.HotIsCSR {
		flags |= flagHotCSR
	}
	if w.ColdIsCSR {
		flags |= flagColdCSR
	}
	var h [headerWords]uint64
	h[wN], h[wTileH], h[wTileW] = uint64(w.N), uint64(w.TileH), uint64(w.TileW)
	h[wNumTR], h[wNumTC] = uint64(w.NumTR), uint64(w.NumTC)
	h[wHeuristic], h[wFlags] = uint64(w.Heuristic), flags
	h[wPredicted] = math.Float64bits(w.Predicted)
	h[wHotTime] = math.Float64bits(w.Totals.HotTime)
	h[wColdTime] = math.Float64bits(w.Totals.ColdTime)
	h[wHotBytes] = math.Float64bits(w.Totals.HotBytes)
	h[wColdBytes] = math.Float64bits(w.Totals.ColdBytes)
	h[wTiles], h[wPanels] = uint64(len(w.Tiles)), uint64(len(w.PanelStart))
	h[wRows], h[wCols], h[wVals] = uint64(len(w.Rows)), uint64(len(w.Cols)), uint64(len(w.Vals))
	h[wHot] = uint64(len(w.Hot))
	for i, v := range h {
		binary.LittleEndian.PutUint64(b[preambleLen+8*i:], v)
	}

	for i := range w.Tiles {
		t := &w.Tiles[i]
		b := e.next(tileLen)
		for j, v := range [6]int{t.TR, t.TC, t.Start, t.End, t.UniqRows, t.UniqCols} {
			binary.LittleEndian.PutUint64(b[8*j:], uint64(v))
		}
	}
	for s := w.PanelStart; len(s) > 0; {
		k := min(len(s), wireChunk/8)
		b := e.next(8 * k)
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		s = s[k:]
	}
	e.int32s(w.Rows)
	e.int32s(w.Cols)
	for s := w.Vals; len(s) > 0; {
		k := min(len(s), wireChunk/8)
		b := e.next(8 * k)
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		s = s[k:]
	}
	for s := w.Hot; len(s) > 0; {
		k := min(len(s), 8*wireChunk)
		b := e.next((k + 7) / 8)
		clear(b)
		for i, hot := range s[:k] {
			if hot {
				b[i/8] |= 1 << (i % 8)
			}
		}
		s = s[k:]
	}

	e.flush()
	binary.LittleEndian.PutUint32(e.next(trailerLen), e.crc)
	if e.err == nil {
		_, e.err = dst.Write(e.buf)
	}
	if e.err != nil {
		return fmt.Errorf("hotcore: writing plan: %w", e.err)
	}
	return nil
}

// wireWriter streams the encoding through buf, folding every flushed
// byte into a running CRC-32C.
type wireWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

// next returns the following n ≤ wireChunk bytes of the stream for the
// caller to fill, flushing the buffer first when they do not fit.
func (e *wireWriter) next(n int) []byte {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
	l := len(e.buf)
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

func (e *wireWriter) flush() {
	e.crc = crc32.Update(e.crc, castagnoli, e.buf)
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *wireWriter) int32s(s []int32) {
	for len(s) > 0 {
		k := min(len(s), wireChunk/4)
		b := e.next(4 * k)
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		s = s[k:]
	}
}

// decodeWire reads one v3 plan. Every count in the header is checked
// against the bytes left before anything is allocated, and the checksum
// before anything is returned. A reader that reports Len (bytes.Reader,
// bytes.Buffer, strings.Reader) is decoded in place; any other is read
// whole first, so the bytes left are known.
func decodeWire(r io.Reader) (*planWire, error) {
	lr, ok := r.(interface {
		io.Reader
		Len() int
	})
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("hotcore: reading plan: %w", err)
		}
		lr = bytes.NewReader(data)
	}
	d := &wireReader{r: lr, buf: make([]byte, min(wireChunk, max(lr.Len(), preambleLen+headerLen)))}
	b := d.next(preambleLen)
	if b == nil {
		return nil, d.err
	}
	if string(b[:len(planMagic)]) != planMagic {
		return nil, fmt.Errorf("hotcore: not a plan wire version %d stream: rebuild the plan", PlanWireVersion)
	}
	if v := binary.LittleEndian.Uint32(b[len(planMagic):]); v != PlanWireVersion {
		return nil, fmt.Errorf("hotcore: plan wire version %d, want %d: rebuild the plan", v, PlanWireVersion)
	}
	if b = d.next(headerLen); b == nil {
		return nil, d.err
	}
	var h [headerWords]uint64
	for i := range h {
		h[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if h[wFlags]&^flagsKnown != 0 {
		return nil, fmt.Errorf("hotcore: plan flags %#x carry unknown bits", h[wFlags])
	}

	// Bound the counts by the bytes left, in uint64 and by division, so no
	// declared count can overflow the sum or reach an allocation.
	left := uint64(d.end-d.pos) + uint64(lr.Len())
	if left < trailerLen {
		return nil, fmt.Errorf("hotcore: plan truncated before its checksum")
	}
	left -= trailerLen
	for _, c := range [...]struct {
		name string
		n    uint64
		size uint64
	}{
		{"tiles", h[wTiles], tileLen},
		{"panel starts", h[wPanels], 8},
		{"rows", h[wRows], 4},
		{"cols", h[wCols], 4},
		{"vals", h[wVals], 8},
		{"assignment bytes", h[wHot]/8 + min(h[wHot]%8, 1), 1},
	} {
		if c.n > left/c.size {
			return nil, fmt.Errorf("hotcore: plan declares %d %s, %d bytes left", c.n, c.name, left)
		}
		left -= c.n * c.size
	}

	w := &planWire{
		N:          int(h[wN]),
		TileH:      int(h[wTileH]),
		TileW:      int(h[wTileW]),
		NumTR:      int(h[wNumTR]),
		NumTC:      int(h[wNumTC]),
		Tiles:      make([]tile.Tile, h[wTiles]),
		PanelStart: make([]int, h[wPanels]),
		Rows:       make([]int32, h[wRows]),
		Cols:       make([]int32, h[wCols]),
		Vals:       make([]float64, h[wVals]),
		Hot:        make([]bool, h[wHot]),
		Heuristic:  partition.Heuristic(h[wHeuristic]),
		Serial:     h[wFlags]&flagSerial != 0,
		Predicted:  math.Float64frombits(h[wPredicted]),
		Totals: partition.Totals{
			HotTime:   math.Float64frombits(h[wHotTime]),
			ColdTime:  math.Float64frombits(h[wColdTime]),
			HotBytes:  math.Float64frombits(h[wHotBytes]),
			ColdBytes: math.Float64frombits(h[wColdBytes]),
		},
		HotIsCSR:  h[wFlags]&flagHotCSR != 0,
		ColdIsCSR: h[wFlags]&flagColdCSR != 0,
	}
	for i := range w.Tiles {
		if b = d.next(tileLen); b == nil {
			return nil, d.err
		}
		w.Tiles[i] = tile.Tile{
			TR:       int(binary.LittleEndian.Uint64(b)),
			TC:       int(binary.LittleEndian.Uint64(b[8:])),
			Start:    int(binary.LittleEndian.Uint64(b[16:])),
			End:      int(binary.LittleEndian.Uint64(b[24:])),
			UniqRows: int(binary.LittleEndian.Uint64(b[32:])),
			UniqCols: int(binary.LittleEndian.Uint64(b[40:])),
		}
	}
	for s := w.PanelStart; len(s) > 0; {
		k := min(len(s), wireChunk/8)
		if b = d.next(8 * k); b == nil {
			return nil, d.err
		}
		for i := range s[:k] {
			s[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
		}
		s = s[k:]
	}
	d.int32s(w.Rows)
	d.int32s(w.Cols)
	for s := w.Vals; len(s) > 0; {
		k := min(len(s), wireChunk/8)
		if b = d.next(8 * k); b == nil {
			return nil, d.err
		}
		for i := range s[:k] {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		s = s[k:]
	}
	for s := w.Hot; len(s) > 0; {
		k := min(len(s), 8*wireChunk)
		if b = d.next((k + 7) / 8); b == nil {
			return nil, d.err
		}
		for i := range s[:k] {
			s[i] = b[i/8]&(1<<(i%8)) != 0
		}
		if k%8 != 0 && b[len(b)-1]>>(k%8) != 0 {
			return nil, fmt.Errorf("hotcore: plan assignment sets bits past its %d tiles", len(w.Hot))
		}
		s = s[k:]
	}
	if d.err != nil {
		return nil, d.err
	}
	want := d.sum()
	if b = d.next(trailerLen); b == nil {
		return nil, d.err
	}
	if got := binary.LittleEndian.Uint32(b); got != want {
		return nil, fmt.Errorf("hotcore: plan checksum %#08x, want %#08x: corrupt plan", got, want)
	}
	return w, nil
}

// wireReader hands out the stream in pieces from one buffer, folding every
// consumed byte into a running CRC-32C. The buffer holds wireChunk bytes,
// or the whole stream when that is shorter (but at least the header):
// every piece asked for fits, because the counts were bounded by the
// stream's length.
type wireReader struct {
	r        io.Reader
	buf      []byte
	pos, end int // buf[pos:end] is read but not yet consumed
	summed   int // buf[summed:pos] is consumed but not yet in crc
	crc      uint32
	err      error
}

// next consumes the following n ≤ len(buf) bytes. It returns nil, and
// sets err, when the stream ends first.
func (d *wireReader) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.end-d.pos < n {
		d.sum()
		k := copy(d.buf, d.buf[d.pos:d.end])
		d.pos, d.summed, d.end = 0, 0, k
		m, err := io.ReadAtLeast(d.r, d.buf[k:], n-k)
		d.end += m
		if err != nil {
			d.err = fmt.Errorf("hotcore: plan truncated: %w", err)
			return nil
		}
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// sum returns the CRC-32C of every byte consumed so far.
func (d *wireReader) sum() uint32 {
	d.crc = crc32.Update(d.crc, castagnoli, d.buf[d.summed:d.pos])
	d.summed = d.pos
	return d.crc
}

func (d *wireReader) int32s(s []int32) {
	for len(s) > 0 {
		k := min(len(s), wireChunk/4)
		b := d.next(4 * k)
		if b == nil {
			return
		}
		for i := range s[:k] {
			s[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		s = s[k:]
	}
}
