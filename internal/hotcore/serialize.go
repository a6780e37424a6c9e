package hotcore

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/partition"
	"repro/internal/tile"
)

// PlanWireVersion is the layout version WritePlan stamps on every plan.
// ReadPlan rejects any other version, so a plan file or cache spill written
// under an older layout is never decoded into a wrong or empty plan; such
// plans must be rebuilt.
//
// Version 2 stores each nonzero once, in the grid, and rebuilds the hot
// and cold sections on read. Version 1 (unversioned) also stored both
// sections, two to three copies of every nonzero.
const PlanWireVersion = 2

// planWire is the gob wire form of a Prep: the paper's workflow stores the
// generated formats once (e.g. during GNN training) and reuses them later
// (inference) without re-running the scan/model/partition pipeline (§VI-B).
// It holds the tiling grid and the assignment; the per-worker sections are
// a deterministic function of the two (coldSection, hotSection) and are
// rebuilt on load, so the stream carries one copy of each nonzero.
type planWire struct {
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

	// The section formats: whether the hot tiles carry CSR row pointers
	// and whether the cold section is CSR rather than COO.
	HotIsCSR, ColdIsCSR bool
}

// WritePlan serializes a preprocessing plan. Timings are not persisted
// (they describe the machine that ran the pipeline, not the plan).
func WritePlan(w io.Writer, p *Prep) error {
	if p == nil || p.Grid == nil || p.Hot == nil {
		return fmt.Errorf("hotcore: nil plan")
	}
	g := p.Grid
	wire := planWire{
		Version:    PlanWireVersion,
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
		HotIsCSR:   p.Hot.CSR,
		ColdIsCSR:  p.ColdCSR != nil,
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// ReadPlan deserializes a plan written by WritePlan: it checks the wire
// version, validates the grid, rebuilds the hot and cold sections with the
// calls PreprocessCtx makes, and validates the resulting plan.
func ReadPlan(r io.Reader) (*Prep, error) {
	var wire planWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("hotcore: decoding plan: %w", err)
	}
	if wire.Version != PlanWireVersion {
		return nil, fmt.Errorf("hotcore: plan wire version %d, want %d: rebuild the plan",
			wire.Version, PlanWireVersion)
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
	p := &Prep{
		Grid: g,
		Partition: partition.Result{
			Hot:       wire.Hot,
			Heuristic: wire.Heuristic,
			Serial:    wire.Serial,
			Predicted: wire.Predicted,
			Totals:    wire.Totals,
		},
	}
	p.setCold(coldSection(g, wire.Hot), wire.ColdIsCSR)
	p.Hot = hotSection(g, wire.Hot, wire.HotIsCSR)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hotcore: stored plan invalid: %w", err)
	}
	return p, nil
}
