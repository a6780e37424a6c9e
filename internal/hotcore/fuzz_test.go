package hotcore

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// planBytes serializes a small valid plan; csr selects the PIUMA-style
// architecture whose cold section is CSR (exercising the second wire shape).
func planBytes(tb testing.TB, csr bool) []byte {
	tb.Helper()
	m := testMatrix(tb, 61, 256, 32, 900, 400)
	var a arch.Arch
	if csr {
		a = arch.PIUMA()
		a.TileH, a.TileW = 64, 64
	} else {
		a = smallArch()
	}
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// tinyPlanBytes serializes a 16-row plan of three 8×8 tiles, one hot and
// two cold (about 1 KB against the 12.8 KB of planBytes): a seed small
// enough that the fuzzer's minimization of a newly interesting input ends
// quickly and mutations reach the structure instead of the payload.
func tinyPlanBytes(tb testing.TB) []byte {
	tb.Helper()
	m := testMatrix(tb, 62, 16, 8, 48, 6)
	a := smallArch()
	a.TileH, a.TileW = 8, 8
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadPlan feeds arbitrary byte streams to the plan deserializer — the
// bytes the daemon reads back from its content-addressed cache on disk.
// ReadPlan must reject corruption with a clean error, never panic, and any
// stream it accepts must re-serialize.
func FuzzReadPlan(f *testing.F) {
	coo := planBytes(f, false)
	csr := planBytes(f, true)
	f.Add(coo)
	f.Add(csr)
	f.Add(tinyPlanBytes(f))
	f.Add(coo[:len(coo)/2])
	f.Add([]byte("not a gob stream"))
	f.Add([]byte{})
	f.Add(v1Bytes(f, false))
	for _, name := range []string{"wrong version", "assignment too short", "corrupt grid span"} {
		w := validWire(f, true)
		wireCorruptions[name](w)
		f.Add(encodeWire(f, w))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, p); err != nil {
			t.Fatalf("accepted plan does not re-serialize: %v", err)
		}
		if _, err := ReadPlan(&buf); err != nil {
			t.Fatalf("accepted plan does not re-read: %v", err)
		}
	})
}

// TestReadPlanTruncated walks prefixes of a valid plan stream: every strict
// truncation must come back as an error, not a panic and not a silently
// shorter plan.
func TestReadPlanTruncated(t *testing.T) {
	for _, csr := range []bool{false, true} {
		data := planBytes(t, csr)
		step := len(data) / 97
		if step < 1 {
			step = 1
		}
		for cut := 0; cut < len(data); cut += step {
			if _, err := ReadPlan(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("csr=%v: truncation at %d/%d accepted", csr, cut, len(data))
			}
		}
	}
}

// TestReadPlanBitFlips flips single bits across a valid plan stream and
// requires ReadPlan to survive each corruption: either a clean rejection or
// a plan that still satisfies Validate (a flip inside a float payload can
// be semantically invisible). The pre-fix code panicked on several of
// these shapes (nil hot section, ragged blocks, zero tile geometry).
func TestReadPlanBitFlips(t *testing.T) {
	for _, csr := range []bool{false, true} {
		data := planBytes(t, csr)
		step := len(data) / 512
		if step < 1 {
			step = 1
		}
		for pos := 0; pos < len(data); pos += step {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << (pos % 8)
			p, err := ReadPlan(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("csr=%v: flip at byte %d accepted an invalid plan: %v", csr, pos, err)
			}
		}
	}
}

// encodeWire gob-encodes a hand-built wire record, bypassing WritePlan's
// guards — the shape a corrupted or hostile cache file can take.
func encodeWire(tb testing.TB, w any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// validWire decodes a valid plan stream back into its wire form so tests
// can corrupt individual fields.
func validWire(tb testing.TB, csr bool) *planWire {
	tb.Helper()
	var w planWire
	if err := gob.NewDecoder(bytes.NewReader(planBytes(tb, csr))).Decode(&w); err != nil {
		tb.Fatal(err)
	}
	return &w
}

// wireCorruptions are hand-made damage to a valid v2 wire record. Each one
// decodes cleanly and must then be rejected by ReadPlan's version check,
// grid validation or plan validation, never panic while the sections are
// rebuilt.
var wireCorruptions = map[string]func(w *planWire){
	"wrong version":         func(w *planWire) { w.Version = PlanWireVersion + 1 },
	"unversioned":           func(w *planWire) { w.Version = 0 },
	"assignment too short":  func(w *planWire) { w.Hot = w.Hot[:len(w.Hot)-1] },
	"assignment too long":   func(w *planWire) { w.Hot = append(w.Hot, true) },
	"corrupt grid span":     func(w *planWire) { w.Tiles[1].Start++ },
	"span past nonzeros":    func(w *planWire) { w.Tiles[len(w.Tiles)-1].End = len(w.Vals) + 5 },
	"ragged coordinates":    func(w *planWire) { w.Vals = w.Vals[:len(w.Vals)-1] },
	"zero tile geometry":    func(w *planWire) { w.TileH, w.TileW = 0, 0 },
	"grid shape disagrees":  func(w *planWire) { w.NumTR++ },
	"panel starts disagree": func(w *planWire) { w.PanelStart[1]++ },
	"tile outside grid":     func(w *planWire) { w.Tiles[len(w.Tiles)-1].TR = w.NumTR },
	// The last panel ends at N, not at a tile boundary: a row at N fits
	// its tile's nominal bounds but would index past the rebuilt CSR row
	// pointers.
	"nonzero beyond N": func(w *planWire) {
		last := w.Tiles[len(w.Tiles)-1]
		w.Rows[last.Start] = int32(w.N - 1)
		w.N--
	},
}

// TestReadPlanAdversarialWire is the regression test for the
// deserialization panics: every corruption comes back as a clean error
// for both the COO and the CSR section shapes.
func TestReadPlanAdversarialWire(t *testing.T) {
	for name, corrupt := range wireCorruptions {
		for _, csr := range []bool{false, true} {
			w := validWire(t, csr)
			if len(w.Tiles) < 2 || w.Tiles[len(w.Tiles)-1].TR != w.NumTR-1 {
				t.Fatalf("csr=%v: test plan too small for the corruptions to bite", csr)
			}
			corrupt(w)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s (csr=%v): ReadPlan panicked: %v", name, csr, r)
					}
				}()
				if _, err := ReadPlan(bytes.NewReader(encodeWire(t, w))); err == nil {
					t.Errorf("%s (csr=%v): corrupt wire accepted", name, csr)
				}
			}()
		}
	}
}

// TestReadPlanNonMonotoneColdCSR pins the rebuilt-section check: a grid
// whose cold tile repeats a coordinate passes Grid.Validate, but the cold
// section rebuilt from it is not strictly increasing within a row, and
// ReadPlan must refuse it (the CSR shape used to index past its column
// slice when its row pointers were stored on the wire).
func TestReadPlanNonMonotoneColdCSR(t *testing.T) {
	for _, csr := range []bool{true, false} {
		w := validWire(t, csr)
		ti := -1
		for i, tl := range w.Tiles {
			if !w.Hot[i] && tl.End-tl.Start >= 2 {
				ti = i
				break
			}
		}
		if ti < 0 {
			t.Fatalf("csr=%v: test plan has no cold tile with two nonzeros", csr)
		}
		s := w.Tiles[ti].Start
		w.Rows[s+1], w.Cols[s+1] = w.Rows[s], w.Cols[s]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("csr=%v: ReadPlan panicked on a repeated cold coordinate: %v", csr, r)
				}
			}()
			if _, err := ReadPlan(bytes.NewReader(encodeWire(t, w))); err == nil {
				t.Fatalf("csr=%v: repeated cold coordinate accepted", csr)
			}
		}()
	}
}

// planWireV1 is the unversioned layout WritePlan emitted before version 2:
// the grid plus fully materialized hot and cold sections.
type planWireV1 struct {
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

	HotFormat *TiledMatrix
	Cold      *sparse.COO
	ColdCSR   *sparse.CSR
}

// v1Bytes re-encodes a valid plan in the version-1 layout.
func v1Bytes(tb testing.TB, csr bool) []byte {
	tb.Helper()
	p, err := ReadPlan(bytes.NewReader(planBytes(tb, csr)))
	if err != nil {
		tb.Fatal(err)
	}
	g := p.Grid
	return encodeWire(tb, &planWireV1{
		N: g.N, TileH: g.TileH, TileW: g.TileW, NumTR: g.NumTR, NumTC: g.NumTC,
		Tiles: g.Tiles, PanelStart: g.PanelStart, Rows: g.Rows, Cols: g.Cols, Vals: g.Vals,
		Hot: p.Partition.Hot, Heuristic: p.Partition.Heuristic, Serial: p.Partition.Serial,
		Predicted: p.Partition.Predicted, Totals: p.Partition.Totals,
		HotFormat: p.Hot, Cold: p.Cold, ColdCSR: p.ColdCSR,
	})
}

// TestReadPlanRejectsV1Wire checks that a plan file or spill from before
// version 2 fails with a version error rather than decoding into a plan.
func TestReadPlanRejectsV1Wire(t *testing.T) {
	for _, csr := range []bool{false, true} {
		_, err := ReadPlan(bytes.NewReader(v1Bytes(t, csr)))
		if err == nil || !strings.Contains(err.Error(), "wire version 0") {
			t.Fatalf("csr=%v: v1 stream gave %v, want a version error", csr, err)
		}
	}
}
