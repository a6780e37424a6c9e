// Package partition implements the paper's IMH-aware partitioning (§V): the
// four HotTiles heuristics (MinTime/MinByte × Parallel/Serial) with the
// cutoff-index placement algorithm of Figure 8, the predicted-runtime
// formulas used to select among them, and the IMH-unaware IUnaware baseline
// of §III-B (whole-matrix roofline + Huang et al. fraction + random tile
// assignment).
//
// A partitioning is model → Estimates → Run → Result: NewEstimates
// evaluates the per-tile model once, Run applies one Strategy (HotTiles,
// IUnaware, HotOnly, ColdOnly or a Forced heuristic), and Predict prices
// any other assignment.
package partition

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tile"
)

// Heuristic identifies one of the four HotTiles partitioning subproblems
// (paper Table II).
type Heuristic int

const (
	MinTimeParallel Heuristic = iota
	MinTimeSerial
	MinByteParallel
	MinByteSerial
	numHeuristics
)

func (h Heuristic) String() string {
	switch h {
	case MinTimeParallel:
		return "MinTime Parallel"
	case MinTimeSerial:
		return "MinTime Serial"
	case MinByteParallel:
		return "MinByte Parallel"
	case MinByteSerial:
		return "MinByte Serial"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Serial reports whether the heuristic assumes the worker pools execute
// back to back on a shared output buffer rather than in parallel on private
// buffers.
func (h Heuristic) Serial() bool { return h == MinTimeSerial || h == MinByteSerial }

// MinimizesBytes reports whether the heuristic's subproblem objective is
// total memory traffic rather than execution time.
func (h Heuristic) MinimizesBytes() bool { return h == MinByteParallel || h == MinByteSerial }

// BandwidthPressure describes when the heuristic is expected to be
// effective (paper Table II).
func (h Heuristic) BandwidthPressure() string {
	switch h {
	case MinTimeParallel:
		return "low"
	case MinTimeSerial, MinByteParallel:
		return "medium"
	default:
		return "high"
	}
}

// Config describes the heterogeneous architecture to partition for.
type Config struct {
	Hot, Cold *model.Worker
	// BWBytes is the shared main-memory bandwidth in bytes/s.
	BWBytes float64
	// AtomicRMW is true for architectures (PIUMA) whose atomic engine lets
	// both worker types update the same output buffer: t_merge = 0 and only
	// the Parallel heuristics are considered (paper §V-B).
	AtomicRMW bool
	// Params carries K and the semiring's arithmetic-intensity factor.
	Params model.Params
}

func (c *Config) validate() error {
	if c.Hot == nil || c.Cold == nil {
		return fmt.Errorf("partition: nil worker")
	}
	if c.BWBytes <= 0 {
		return fmt.Errorf("partition: non-positive bandwidth")
	}
	if c.Params.K <= 0 || c.Params.OpsPerMAC <= 0 {
		return fmt.Errorf("partition: invalid params %+v", c.Params)
	}
	return nil
}

// Totals are the aggregate predictions of Equation 2/3 after the §IV-C
// readjustment: per-pool execution times (already divided by worker counts)
// and per-pool main-memory traffic.
type Totals struct {
	HotTime, ColdTime   float64 // th_total, tc_total (seconds)
	HotBytes, ColdBytes float64 // bh_total, bc_total
}

// Bytes returns b_total.
func (t Totals) Bytes() float64 { return t.HotBytes + t.ColdBytes }

// Result is a partitioning decision: which tiles go hot, which heuristic
// produced it, whether the pools run serially, and the predicted runtime.
type Result struct {
	// Hot[i] reports whether g.Tiles[i] is assigned to the hot workers.
	Hot []bool
	// Heuristic is the winning subproblem (undefined for baselines).
	Heuristic Heuristic
	// Serial is true when the predicted-best execution runs the pools back
	// to back.
	Serial bool
	// Predicted is the predicted runtime in seconds.
	Predicted float64
	// Totals are the readjusted aggregates behind Predicted.
	Totals Totals
}

// HotNNZ returns the number and fraction of nonzeros assigned to hot
// workers (the statistic Figure 5 reports).
func (r *Result) HotNNZ(g *tile.Grid) (nnz int, frac float64) {
	for i, h := range r.Hot {
		if h {
			nnz += g.Tiles[i].NNZ()
		}
	}
	if g.NNZ() > 0 {
		frac = float64(nnz) / float64(g.NNZ())
	}
	return nnz, frac
}

// MergeBytes returns the traffic of merging the two private output buffers:
// the Merger reads both buffers and writes the combined one (paper §V-A;
// the cost is data independent by design).
func MergeBytes(n int, p model.Params, elemBytes int) float64 {
	return 3 * float64(n) * float64(p.K) * float64(elemBytes)
}

// mergeTime returns t_merge for a given assignment: zero when the
// architecture supports atomic RMW or when either pool is empty (no second
// buffer to merge).
func mergeTime(g *tile.Grid, cfg *Config, hot []bool) float64 {
	if cfg.AtomicRMW {
		return 0
	}
	anyHot, anyCold := false, false
	for _, h := range hot {
		if h {
			anyHot = true
		} else {
			anyCold = true
		}
	}
	if !anyHot || !anyCold {
		return 0
	}
	return MergeBytes(g.N, cfg.Params, cfg.Hot.ElemBytes) / cfg.BWBytes
}

// totals computes the readjusted Totals of an assignment: per-tile
// estimates under maximum reuse, plus the per-panel first-tile charges of
// §IV-C, divided by the pool sizes per Equation 2.
func (es *Estimates) totals(cfg *Config, hot []bool) Totals {
	g, eh, ec := es.Grid, es.Hot, es.Cold
	var t Totals
	for i := range g.Tiles {
		if hot[i] {
			t.HotTime += eh[i].Time
			t.HotBytes += eh[i].Bytes
		} else {
			t.ColdTime += ec[i].Time
			t.ColdBytes += ec[i].Bytes
		}
	}
	var adj model.Adjuster
	base := 0
	keepHot := func(i int) bool { return hot[base+i] }
	keepCold := func(i int) bool { return !hot[base+i] }
	for tr := 0; tr < g.NumTR; tr++ {
		base = g.PanelStart[tr]
		ah := adj.PanelAdjust(cfg.Hot, g, tr, keepHot, cfg.Params)
		ac := adj.PanelAdjust(cfg.Cold, g, tr, keepCold, cfg.Params)
		t.HotTime += ah.Time
		t.HotBytes += ah.Bytes
		t.ColdTime += ac.Time
		t.ColdBytes += ac.Bytes
	}
	if cfg.Hot.Count > 0 {
		t.HotTime /= float64(cfg.Hot.Count)
	}
	if cfg.Cold.Count > 0 {
		t.ColdTime /= float64(cfg.Cold.Count)
	}
	return t
}

// predictedRuntime applies the Figure 8 final-column formulas.
func predictedRuntime(g *tile.Grid, cfg *Config, hot []bool, t Totals, serial bool) float64 {
	if serial {
		return maxf(t.HotTime, t.HotBytes/cfg.BWBytes) +
			maxf(t.ColdTime, t.ColdBytes/cfg.BWBytes)
	}
	return maxf(maxf(t.HotTime, t.ColdTime), t.Bytes()/cfg.BWBytes) +
		mergeTime(g, cfg, hot)
}

// AllHot returns the homogeneous hot assignment.
func AllHot(g *tile.Grid) []bool {
	a := make([]bool, len(g.Tiles))
	for i := range a {
		a[i] = true
	}
	return a
}

// AllCold returns the homogeneous cold assignment.
func AllCold(g *tile.Grid) []bool { return make([]bool, len(g.Tiles)) }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
