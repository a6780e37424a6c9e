package main

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/mm"
)

func TestBodiesDeterministicAndDistinct(t *testing.T) {
	a, err := makeInputs(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]int{}
	for idx := 0; idx < 3*len(classes); idx++ {
		body := a.body(nil, 1, planStream, idx)
		if !bytes.Equal(body, b.body(nil, 1, planStream, idx)) {
			t.Fatalf("body %d differs between two generations from one seed", idx)
		}
		sum := sha256.Sum256(body)
		if prev, ok := seen[sum]; ok {
			t.Fatalf("bodies %d and %d have one sha256", prev, idx)
		}
		seen[sum] = idx
		if sum == sha256.Sum256(a.body(nil, 1, gnnStream, idx)) {
			t.Fatalf("body %d is the same on the plan and GNN streams", idx)
		}

		m, err := mm.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("body %d does not parse: %v", idx, err)
		}
		in := a[idx%len(a)]
		if m.N != in.rows || m.NNZ() < in.nnz {
			t.Fatalf("body %d parses to %d rows, %d nnz; want %d rows, ≥ %d nnz", idx, m.N, m.NNZ(), in.rows, in.nnz)
		}
	}
}

func TestSeedPicksAppendedEntries(t *testing.T) {
	set, err := makeInputs(true)
	if err != nil {
		t.Fatal(err)
	}
	for idx, in := range set {
		a, b := set.body(nil, 1, planStream, idx), set.body(nil, 2, planStream, idx)
		base := bytes.Index(a, in.entries) + len(in.entries)
		if bytes.Equal(a, b) || !bytes.Equal(a[:base], b[:base]) {
			t.Errorf("class %s: seeds 1 and 2 should share the base matrix and differ in the appended entries", set[idx].class)
		}
	}
}
