package hotcore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
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
// two cold (under 1 KB against the 17 KB of planBytes): a seed small
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
// stream it accepts must re-serialize. Each input is also read resealed,
// with its checksum recomputed, so mutations get past the CRC and reach
// the count bounds, the grid validation and the section rebuild.
func FuzzReadPlan(f *testing.F) {
	coo := planBytes(f, false)
	csr := planBytes(f, true)
	f.Add(coo)
	f.Add(csr)
	f.Add(tinyPlanBytes(f))
	f.Add(coo[:len(coo)/2])
	f.Add([]byte("not a plan stream"))
	f.Add([]byte{})
	f.Add(v1Bytes(f, false))
	for _, name := range []string{"wrong version", "assignment too short", "corrupt grid span"} {
		f.Add(wireCorruptions[name](f, validWire(f, true)))
	}
	f.Add(v2Bytes(f, false))

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= trailerLen {
			inputs = append(inputs, reseal(append([]byte(nil), data...)))
		}
		for _, in := range inputs {
			p, err := ReadPlan(bytes.NewReader(in))
			if err != nil {
				continue // rejected input is fine; panics are not
			}
			var buf bytes.Buffer
			if err := WritePlan(&buf, p); err != nil {
				t.Fatalf("accepted plan does not re-serialize: %v", err)
			}
			if _, err := ReadPlan(&buf); err != nil {
				t.Fatalf("accepted plan does not re-read: %v", err)
			}
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

// TestReadPlanBitFlips flips single bits across valid plan streams: the
// CRC-32C trailer detects every single-bit error, so ReadPlan must reject
// each one. The tiny plan is flipped at every bit, the larger ones at one
// bit of every stride-th byte.
func TestReadPlanBitFlips(t *testing.T) {
	flip := func(name string, data []byte, pos, bit int) {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1 << bit
		if _, err := ReadPlan(bytes.NewReader(mut)); err == nil {
			t.Fatalf("%s: flip of bit %d at byte %d/%d accepted", name, bit, pos, len(data))
		}
	}
	tiny := tinyPlanBytes(t)
	for pos := range tiny {
		for bit := 0; bit < 8; bit++ {
			flip("tiny", tiny, pos, bit)
		}
	}
	for _, csr := range []bool{false, true} {
		data := planBytes(t, csr)
		for pos := 0; pos < len(data); pos += max(len(data)/512, 1) {
			flip(fmt.Sprintf("csr=%v", csr), data, pos, pos%8)
		}
	}
}

// reseal recomputes the checksum trailer of a plan stream after an edit
// and returns the stream.
func reseal(data []byte) []byte {
	n := len(data) - trailerLen
	binary.LittleEndian.PutUint32(data[n:], crc32.Checksum(data[:n], castagnoli))
	return data
}

// encodeWire encodes a hand-built wire record with a valid checksum,
// bypassing WritePlan's guards — the shape a corrupted or hostile cache
// file can take.
func encodeWire(tb testing.TB, w *planWire) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := w.encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// validWire decodes a valid plan stream back into its wire form so tests
// can corrupt individual fields.
func validWire(tb testing.TB, csr bool) *planWire {
	tb.Helper()
	w, err := decodeWire(bytes.NewReader(planBytes(tb, csr)))
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// putHeader overwrites header word i of an encoded plan and reseals it.
func putHeader(data []byte, i int, v uint64) []byte {
	binary.LittleEndian.PutUint64(data[preambleLen+8*i:], v)
	return reseal(data)
}

// wireCorruptions are hand-made damage to a valid v3 plan, returned as the
// stream to read. Every one but the checksum row carries a valid CRC, so
// it must be rejected by the version check, the count bounds, grid
// validation or plan validation, never panic while the sections are
// rebuilt.
var wireCorruptions = map[string]func(tb testing.TB, w *planWire) []byte{
	"wrong magic": func(tb testing.TB, w *planWire) []byte {
		data := encodeWire(tb, w)
		copy(data, "GOB!")
		return reseal(data)
	},
	"wrong version": func(tb testing.TB, w *planWire) []byte {
		data := encodeWire(tb, w)
		binary.LittleEndian.PutUint32(data[len(planMagic):], PlanWireVersion+1)
		return reseal(data)
	},
	"unversioned": func(tb testing.TB, w *planWire) []byte {
		data := encodeWire(tb, w)
		binary.LittleEndian.PutUint32(data[len(planMagic):], 0)
		return reseal(data)
	},
	"count past bytes left": func(tb testing.TB, w *planWire) []byte {
		return putHeader(encodeWire(tb, w), wRows, uint64(len(w.Rows))+1<<40)
	},
	"count overflows": func(tb testing.TB, w *planWire) []byte {
		return putHeader(encodeWire(tb, w), wTiles, math.MaxUint64)
	},
	"unknown flag": func(tb testing.TB, w *planWire) []byte {
		return putHeader(encodeWire(tb, w), wFlags, 1<<7)
	},
	// The three-tile plan, since a multiple of eight tiles leaves no
	// padding bits to set.
	"assignment bits past last tile": func(tb testing.TB, _ *planWire) []byte {
		data := tinyPlanBytes(tb)
		data[len(data)-trailerLen-1] |= 0x80
		return reseal(data)
	},
	"checksum mismatch": func(tb testing.TB, w *planWire) []byte {
		data := encodeWire(tb, w)
		data[len(data)-1] ^= 0x40
		return data
	},
	"assignment too short": func(tb testing.TB, w *planWire) []byte {
		w.Hot = w.Hot[:len(w.Hot)-1]
		return encodeWire(tb, w)
	},
	"assignment too long": func(tb testing.TB, w *planWire) []byte {
		w.Hot = append(w.Hot, true)
		return encodeWire(tb, w)
	},
	"corrupt grid span": func(tb testing.TB, w *planWire) []byte {
		w.Tiles[1].Start++
		return encodeWire(tb, w)
	},
	"span past nonzeros": func(tb testing.TB, w *planWire) []byte {
		w.Tiles[len(w.Tiles)-1].End = len(w.Vals) + 5
		return encodeWire(tb, w)
	},
	"ragged coordinates": func(tb testing.TB, w *planWire) []byte {
		w.Vals = w.Vals[:len(w.Vals)-1]
		return encodeWire(tb, w)
	},
	"ragged rows": func(tb testing.TB, w *planWire) []byte {
		w.Rows = w.Rows[:len(w.Rows)-1]
		return encodeWire(tb, w)
	},
	"zero tile geometry": func(tb testing.TB, w *planWire) []byte {
		w.TileH, w.TileW = 0, 0
		return encodeWire(tb, w)
	},
	"grid shape disagrees": func(tb testing.TB, w *planWire) []byte {
		w.NumTR++
		return encodeWire(tb, w)
	},
	"panel starts disagree": func(tb testing.TB, w *planWire) []byte {
		w.PanelStart[1]++
		return encodeWire(tb, w)
	},
	"tile outside grid": func(tb testing.TB, w *planWire) []byte {
		w.Tiles[len(w.Tiles)-1].TR = w.NumTR
		return encodeWire(tb, w)
	},
	// The last panel ends at N, not at a tile boundary: a row at N fits
	// its tile's nominal bounds but would index past the rebuilt CSR row
	// pointers.
	"nonzero beyond N": func(tb testing.TB, w *planWire) []byte {
		last := w.Tiles[len(w.Tiles)-1]
		w.Rows[last.Start] = int32(w.N - 1)
		w.N--
		return encodeWire(tb, w)
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
			data := corrupt(t, w)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s (csr=%v): ReadPlan panicked: %v", name, csr, r)
					}
				}()
				if _, err := ReadPlan(bytes.NewReader(data)); err == nil {
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

// gobBytes gob-encodes one record of an earlier wire layout.
func gobBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// planWireV1 is the unversioned gob layout WritePlan emitted before
// version 2: the grid plus fully materialized hot and cold sections.
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
	return gobBytes(tb, &planWireV1{
		N: g.N, TileH: g.TileH, TileW: g.TileW, NumTR: g.NumTR, NumTC: g.NumTC,
		Tiles: g.Tiles, PanelStart: g.PanelStart, Rows: g.Rows, Cols: g.Cols, Vals: g.Vals,
		Hot: p.Partition.Hot, Heuristic: p.Partition.Heuristic, Serial: p.Partition.Serial,
		Predicted: p.Partition.Predicted, Totals: p.Partition.Totals,
		HotFormat: p.Hot, Cold: p.Cold, ColdCSR: p.ColdCSR,
	})
}

// planWireV2 is the gob layout of version 2: the grid and the assignment,
// with the sections rebuilt on load.
type planWireV2 struct {
	Version      int
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

	HotIsCSR, ColdIsCSR bool
}

// v2Bytes re-encodes a valid plan in the version-2 layout.
func v2Bytes(tb testing.TB, csr bool) []byte {
	tb.Helper()
	w := validWire(tb, csr)
	return gobBytes(tb, &planWireV2{
		Version: 2, N: w.N, TileH: w.TileH, TileW: w.TileW, NumTR: w.NumTR, NumTC: w.NumTC,
		Tiles: w.Tiles, PanelStart: w.PanelStart, Rows: w.Rows, Cols: w.Cols, Vals: w.Vals,
		Hot: w.Hot, Heuristic: w.Heuristic, Serial: w.Serial, Predicted: w.Predicted,
		Totals: w.Totals, HotIsCSR: w.HotIsCSR, ColdIsCSR: w.ColdIsCSR,
	})
}

// TestReadPlanRejectsV1Wire checks that a plan file or spill from before
// version 2 fails with a version error rather than decoding into a plan.
func TestReadPlanRejectsV1Wire(t *testing.T) {
	for _, csr := range []bool{false, true} {
		_, err := ReadPlan(bytes.NewReader(v1Bytes(t, csr)))
		if err == nil || !strings.Contains(err.Error(), "plan wire version") {
			t.Fatalf("csr=%v: v1 stream gave %v, want a version error", csr, err)
		}
	}
}

// TestReadPlanRejectsV2Wire checks the same for a version-2 gob stream.
func TestReadPlanRejectsV2Wire(t *testing.T) {
	for _, csr := range []bool{false, true} {
		_, err := ReadPlan(bytes.NewReader(v2Bytes(t, csr)))
		if err == nil || !strings.Contains(err.Error(), "plan wire version") {
			t.Fatalf("csr=%v: v2 stream gave %v, want a version error", csr, err)
		}
	}
}
