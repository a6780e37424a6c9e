// Package spans exercises the spanend analyzer.
package spans

import "repro/internal/obs"

// leakAssigned opens a span and never closes it.
func leakAssigned(tr *obs.Tracer) {
	sp := tr.Phase("exec").Start("job") // want `span "sp" is started but not ended in this block`
	sp.SetAttr("k", "v")
}

// leakDiscarded drops the span on the floor.
func leakDiscarded(tr *obs.Tracer) {
	tr.Phase("exec").Start("job") // want `result of Start discarded`
}

// leakBlank can never be ended either.
func leakBlank(tr *obs.Tracer) {
	_ = tr.Phase("exec").Start("job") // want `span assigned to blank identifier`
}

// leakNested closes a different block's span: the End in the if body does
// not satisfy the same-block rule.
func leakNested(tr *obs.Tracer, ok bool) {
	sp := tr.Phase("exec").Start("job") // want `span "sp" is started but not ended in this block`
	if ok {
		sp.End()
	}
}

// deferEnd is the canonical pattern: silent.
func deferEnd(tr *obs.Tracer) {
	sp := tr.Phase("exec").Start("job")
	defer sp.End()
	sp.SetAttr("k", "v")
}

// sameBlockEnd closes the span before leaving the block: silent.
func sameBlockEnd(tr *obs.Tracer, work func()) {
	sp := tr.Phase("exec").Start("job")
	work()
	sp.End()
}

// chainedEnd starts and ends in one expression: silent.
func chainedEnd(tr *obs.Tracer) {
	tr.Phase("exec").Start("job").End()
}

// deferredClosure ends the span inside a deferred function literal: silent.
func deferredClosure(tr *obs.Tracer, work func()) {
	sp := tr.Phase("exec").Start("job")
	defer func() {
		sp.SetAttr("done", "true")
		sp.End()
	}()
	work()
}

// childSpans nest: each is tracked independently.
func childSpans(tr *obs.Tracer) {
	outer := tr.Phase("exec").Start("outer")
	defer outer.End()
	inner := outer.Start("inner") // want `span "inner" is started but not ended in this block`
	inner.SetAttr("k", "v")
}
