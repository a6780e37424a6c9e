// Package locks exercises the lockcopy analyzer.
package locks

import "repro/internal/par"

// guarded owns a singleflight cache.
type guarded struct {
	cache par.Cache[string, *entry]
}

type entry struct {
	Val int
}

// mutateCached rewrites a value shared through the singleflight cache.
func mutateCached(g *guarded) {
	e, _ := g.cache.Get("k", func() (*entry, error) { return &entry{Val: 1}, nil })
	e.Val = 2 // want `mutation of "e", a value shared via par.Cache.Get`
}

// readCached only reads the shared value and rebinds the variable: silent.
func readCached(g *guarded) int {
	e, _ := g.cache.Get("k", func() (*entry, error) { return &entry{Val: 1}, nil })
	n := e.Val
	e = &entry{Val: n} // rebinding the local is not mutation of the shared value
	return e.Val
}
