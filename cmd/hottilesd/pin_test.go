package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	hottiles "repro"
	"repro/internal/gen"
)

// TestGNNOutputPinned pins /gnn's output_sha256 (2 layers, the daemon's
// default features) for the serving benchmark's four input classes on
// SPADE-Sextans 4-4 and on PIUMA, under the daemon's default tiling and
// strategy, plus one plan whose pools run back to back (Serial). The
// hashes were recorded on linux/amd64 with the two-buffer, per-nonzero
// functional kernel; a change to the kernel's rounding order, to the merge
// or to the activation moves them.
func TestGNNOutputPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	for _, c := range []struct {
		arch, class string
		scale       int
		serial      bool
		want        string
	}{
		{"spade-sextans:4", "pap", 400, false, "a925bc87ff104e63121cb682e9f06a8c37832e5950b6d29e3196c8d6bfdbf5b0"},
		{"spade-sextans:4", "kro", 256, false, "55f3d75389704aac07cd1390f28b9a05eb23c1ab7db8e2b2ae07891214a79371"},
		{"spade-sextans:4", "myc", 64, false, "f16dbdaa40442f3f1503d21c2d3dc9b66b949f72831f0eedf5ec9a800e80013d"},
		{"spade-sextans:4", "del", 256, false, "cc16fe4cf6b72f9c62f737e494abd36024acca89fa8cde0fb4dc3a9e620b1f12"},
		{"piuma", "pap", 400, false, "a925bc87ff104e63121cb682e9f06a8c37832e5950b6d29e3196c8d6bfdbf5b0"},
		{"piuma", "kro", 256, false, "d2beae3148cdbe1f6f1e12df0571f8d2a9183e074ee8a1350255bd53e3f2d664"},
		{"piuma", "myc", 64, false, "61a2a3a7de074faca93c54ae0f82a724fe53bfb5b70b227449d8c0ae25096540"},
		{"piuma", "del", 256, false, "b6b99a48ecfeca008f7ea9c59df62ace4db3ecb8f2e665e975932bbd5af8b092"},
		{"spade-sextans:16", "del", 256, true, "fbcb2cf133cb2a8c978a6919eb7ccdf7b4f5ebea2954204e14a138b96945869e"},
	} {
		cfg := testConfig()
		cfg.archName = c.arch
		var err error
		if cfg.arch, err = hottiles.ParseArch(c.arch); err != nil {
			t.Fatal(err)
		}
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen.ByShort(c.class)
		var body bytes.Buffer
		if err := hottiles.WriteMatrixMarket(&body, b.Build(1, c.scale)); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/gnn", bytes.NewReader(body.Bytes())))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.arch, c.class, rec.Code, rec.Body.Bytes())
		}
		g := decodeGNN(t, rec.Body.Bytes())
		if g.OutputSHA256 != c.want {
			t.Errorf("%s %s: output_sha256 %s, want %s", c.arch, c.class, g.OutputSHA256, c.want)
		}
		rec = httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/plan/"+g.Hash, nil))
		plan, err := hottiles.ReadPlan(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Partition.Serial != c.serial {
			t.Errorf("%s %s: plan Serial = %v, want %v", c.arch, c.class, plan.Partition.Serial, c.serial)
		}
	}
}
