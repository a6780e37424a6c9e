// Package calib implements the data-driven determination of the visible
// latency per byte (vis_lat) of §VI-B: a small number of homogeneous
// profiling runs are executed (here: simulated) on a set of small test
// matrices, and a search sets each worker type's vis_lat to minimize the
// error between the model's predicted execution times and the measured
// ones. The tuning is a one-time, per-machine cost; the fitted values are
// reused across matrices.
package calib

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// Report describes one calibration outcome.
type Report struct {
	Worker string
	// VisLat is the fitted visible latency per byte (s/B).
	VisLat float64
	// RelError is the mean relative |predicted−measured|/measured across
	// the profiling matrices at the fitted value.
	RelError float64
	// Runs is the number of profiling runs executed.
	Runs int
}

// Calibrate fits vis_lat for both worker types of architecture a from
// homogeneous profiling runs on the given matrices, updating a in place and
// returning one report per worker type (cold first). Matrices too small to
// tile are rejected.
func Calibrate(a *arch.Arch, mats []*sparse.COO) ([]Report, error) {
	if len(mats) == 0 {
		return nil, fmt.Errorf("calib: no profiling matrices")
	}
	type profile struct {
		g      *tile.Grid
		actual float64
	}
	fit := func(w *model.Worker, hotSide bool) (Report, error) {
		strategy := partition.ColdOnly
		if hotSide {
			strategy = partition.HotOnly
		}
		var profiles []profile
		for _, m := range mats {
			g, err := tile.Partition(m, a.TileH, a.TileW)
			if err != nil {
				return Report{}, err
			}
			assign := partition.AllCold(g)
			if hotSide {
				assign = partition.AllHot(g)
			}
			r, err := sim.Run(g, assign, a, nil, sim.Options{SkipFunctional: true})
			if err != nil {
				return Report{}, err
			}
			if r.Time <= 0 {
				return Report{}, fmt.Errorf("calib: zero measured time")
			}
			profiles = append(profiles, profile{g, r.Time})
		}
		// Mean relative error of the homogeneous model prediction at a
		// candidate vis_lat.
		errAt := func(visLat float64) float64 {
			trial := *w
			trial.VisLatPerByte = visLat
			cfg := a.Config(2)
			if hotSide {
				cfg.Hot = &trial
			} else {
				cfg.Cold = &trial
			}
			sum := 0.0
			for _, p := range profiles {
				es, err := partition.NewEstimates(p.g, &cfg)
				if err != nil {
					return math.Inf(1)
				}
				res, err := partition.Run(es, cfg, strategy, 0)
				if err != nil {
					return math.Inf(1)
				}
				sum += math.Abs(res.Predicted-p.actual) / p.actual
			}
			return sum / float64(len(profiles))
		}
		best := searchLog(errAt, 1e-13, 1e-8)
		w.VisLatPerByte = best
		return Report{
			Worker:   w.Name,
			VisLat:   best,
			RelError: errAt(best),
			Runs:     len(profiles),
		}, nil
	}

	var reports []Report
	if a.Cold.Count > 0 {
		r, err := fit(&a.Cold, false)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	if a.Hot.Count > 0 {
		r, err := fit(&a.Hot, true)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("calib: architecture has no workers")
	}
	return reports, nil
}

// searchLog minimizes f over [lo, hi] with a coarse logarithmic sweep
// followed by golden-section refinement on the best bracket.
func searchLog(f func(float64) float64, lo, hi float64) float64 {
	const coarse = 40
	bestX, bestY := lo, math.Inf(1)
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := 0; i <= coarse; i++ {
		x := math.Exp(logLo + (logHi-logLo)*float64(i)/coarse)
		if y := f(x); y < bestY {
			bestX, bestY = x, y
		}
	}
	// Golden-section refine around the coarse winner (one log decade).
	a := bestX / 3
	b := bestX * 3
	const phi = 0.6180339887498949
	x1 := b - (b-a)*phi
	x2 := a + (b-a)*phi
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 48 && (b-a) > bestX*1e-4; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - (b-a)*phi
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + (b-a)*phi
			f2 = f(x2)
		}
	}
	mid := (a + b) / 2
	if f(mid) < bestY {
		return mid
	}
	return bestX
}
