package experiments

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
)

// TestParallelStudyMatchesSerial pins the determinism contract of the
// parallel experiments fan-out: with fresh Envs, a study computed with the
// worker pool enabled is bit-identical (reflect.DeepEqual over float64s,
// not approximate) to the same study computed serially.
func TestParallelStudyMatchesSerial(t *testing.T) {
	a := arch.SpadeSextans(4)
	suite := gen.Benchmarks()[:3]
	strategies := []partition.Strategy{partition.HotOnly, partition.ColdOnly, partition.IUnaware, partition.HotTiles}

	run := func(workers int) *StrategyStudy {
		defer par.SetWorkers(par.SetWorkers(workers))
		st, err := testEnv().runStudy(a, suite, strategies)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel study differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestParallelFig12MatchesSerial covers the forced-heuristic (partition.Forced)
// strategies the same way.
func TestParallelFig12MatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale study")
	}
	run := func(workers int) *Fig12Result {
		defer par.SetWorkers(par.SetWorkers(workers))
		f, err := testEnv().Fig12()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Fig12 differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
