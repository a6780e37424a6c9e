package partition

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/tile"
)

// Strategy selects how Run assigns tiles to the two worker pools: the
// HotTiles method, the IUnaware baseline, one of the homogeneous
// executions, or one heuristic forced alone (Forced).
type Strategy int

const (
	// HotTiles runs the full partitioning method of §V-B: solve the four
	// (or, with atomic RMW, two) heuristic subproblems, predict each
	// result with the readjusted model, and keep the best.
	HotTiles Strategy = iota
	// IUnaware is the IMH-unaware baseline of §III-B.
	IUnaware
	// HotOnly and ColdOnly are the homogeneous executions.
	HotOnly
	ColdOnly

	// forced is Forced(MinTimeParallel); the other heuristics follow it.
	// It sits far above the named strategies so that no heuristic value a
	// caller passes near the valid range lands on one of them.
	forced Strategy = 1 << 8
)

var strategyNames = [...]string{"HotTiles", "IUnaware", "HotOnly", "ColdOnly"}

// candidates are the heuristics HotTiles tries, Parallel first; on a tie
// the earlier one wins.
var candidates = [...]Heuristic{MinTimeParallel, MinByteParallel, MinTimeSerial, MinByteSerial}

// Forced is the strategy that runs heuristic h alone (the Figure 12 study
// compares the four heuristics individually across system scales).
func Forced(h Heuristic) Strategy { return forced + Strategy(h) }

// heuristic reports the heuristic a Forced strategy runs.
func (s Strategy) heuristic() (Heuristic, bool) {
	h := Heuristic(s - forced)
	return h, s >= forced && h < numHeuristics
}

func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	if s >= forced {
		return "heur:" + Heuristic(s-forced).String()
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Run partitions the tiles of es.Grid with strategy s. Every Result's
// Predicted uses the same readjusted evaluation, so the strategies are
// comparable; seed feeds IUnaware's random assignment. cfg may carry other
// worker counts than the estimates were built with (see Estimates).
func Run(es *Estimates, cfg Config, s Strategy, seed int64) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if err := es.check(); err != nil {
		return Result{}, err
	}
	switch s {
	case HotTiles:
		hs := candidates[:]
		if cfg.AtomicRMW {
			hs = hs[:2] // only the Parallel heuristics (§V-B)
		}
		best := Result{Predicted: -1}
		for _, h := range hs {
			r := es.solve(&cfg, h)
			if best.Predicted < 0 || r.Predicted < best.Predicted {
				best = r
			}
		}
		return best, nil
	case IUnaware:
		return es.evaluate(&cfg, es.iunaware(&cfg, seed), 0, false), nil
	case HotOnly:
		return es.evaluate(&cfg, AllHot(es.Grid), 0, false), nil
	case ColdOnly:
		return es.evaluate(&cfg, AllCold(es.Grid), 0, false), nil
	}
	if h, ok := s.heuristic(); ok {
		return es.solve(&cfg, h), nil
	}
	return Result{}, fmt.Errorf("partition: unknown strategy %v", s)
}

// solve runs heuristic h's subproblem and predicts the result.
func (es *Estimates) solve(cfg *Config, h Heuristic) Result {
	return es.evaluate(cfg, solveSubproblem(es.Grid, cfg, h, es.Hot, es.Cold), h, h.Serial())
}

// solveSubproblem implements the cutoff-index placement of Figure 8: sort
// tiles by the hot−cold difference of the relevant metric, then advance the
// cutoff (tiles left of it are hot) while the subproblem objective
// decreases, rolling back one step on the first increase.
func solveSubproblem(g *tile.Grid, cfg *Config, h Heuristic, eh, ec []model.Estimate) []bool {
	n := len(g.Tiles)
	hot := make([]bool, n)
	if n == 0 {
		return hot
	}
	// Degenerate pools force a homogeneous assignment (iso-scale 0-8/8-0
	// architectures of §VIII-B).
	if cfg.Hot.Count <= 0 {
		return hot
	}
	if cfg.Cold.Count <= 0 {
		for i := range hot {
			hot[i] = true
		}
		return hot
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diff := func(i int) float64 {
		if h.MinimizesBytes() {
			return eh[i].Bytes - ec[i].Bytes
		}
		return eh[i].Time - ec[i].Time
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(diff(a), diff(b)) })

	nhw, ncw := float64(cfg.Hot.Count), float64(cfg.Cold.Count)

	// Incrementally maintained sums for the objective. Start all cold.
	var hotTime, hotBytes float64
	var coldTime, coldBytes float64
	for i := range g.Tiles {
		coldTime += ec[i].Time
		coldBytes += ec[i].Bytes
	}

	objective := func() float64 {
		switch h {
		case MinTimeParallel:
			return maxf(hotTime/nhw, coldTime/ncw)
		case MinTimeSerial:
			return hotTime/nhw + coldTime/ncw
		default: // MinByteParallel, MinByteSerial
			return hotBytes + coldBytes
		}
	}

	cur := objective()
	cutoff := 0
	for cutoff < n {
		i := order[cutoff]
		hotTime += eh[i].Time
		hotBytes += eh[i].Bytes
		coldTime -= ec[i].Time
		coldBytes -= ec[i].Bytes
		next := objective()
		if next >= cur {
			// Roll back: the algorithm has converged.
			hotTime -= eh[i].Time
			hotBytes -= eh[i].Bytes
			coldTime += ec[i].Time
			coldBytes += ec[i].Bytes
			break
		}
		cur = next
		cutoff++
	}
	for p := 0; p < cutoff; p++ {
		hot[order[p]] = true
	}
	return hot
}
