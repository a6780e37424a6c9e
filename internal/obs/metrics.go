package obs

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a process-wide monotonically increasing atomic counter.
// Counters are always live — an Add is a single atomic increment — so
// instrumented packages register them at init and bump them without caring
// whether a trace is being collected. A nil Counter is a no-op.
type Counter struct {
	name string
	n    atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge tracks an instantaneous level and its high-water mark (e.g. the
// worker pool's extra-goroutine depth). A nil Gauge is a no-op.
type Gauge struct {
	name     string
	cur, max atomic.Int64
}

// Set records the current level and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.cur.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.cur.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// registry holds every counter, gauge, and histogram created through
// NewCounter/NewGauge/NewHistogram so RegistrySnapshot can enumerate them
// for manifests and the debug endpoint's Prometheus exposition.
var registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewCounter returns the process-wide counter with the given name, creating
// it on first use (calls with the same name share one counter).
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = map[string]*Counter{}
	}
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// NewGauge returns the process-wide gauge with the given name, creating it
// on first use.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = map[string]*Gauge{}
	}
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.gauges[name] = g
	return g
}

// NewHistogram returns the process-wide histogram with the given name,
// creating it on first use. Names end in ".ns" by convention: every
// histogram records nanoseconds.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.histograms == nil {
		registry.histograms = map[string]*Histogram{}
	}
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	registry.histograms[name] = h
	return h
}

// GaugeSnapshot is one gauge's state in a RegistryView.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// RegistryView is the state of every registered metric, enumerated in one
// pass under the registry lock. Both the run manifest and the debug
// endpoint's Prometheus exposition are rendered from one RegistryView, so
// the two can never disagree about which metrics exist mid-run.
type RegistryView struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// RegistrySnapshot enumerates every registered counter, gauge, and
// histogram under one registry lock and reads each exactly once.
func RegistrySnapshot() *RegistryView {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	v := &RegistryView{
		Counters: make(map[string]int64, len(registry.counters)),
	}
	for name, c := range registry.counters {
		v.Counters[name] = c.Load()
	}
	if len(registry.gauges) > 0 {
		v.Gauges = make(map[string]GaugeSnapshot, len(registry.gauges))
		for name, g := range registry.gauges {
			v.Gauges[name] = GaugeSnapshot{Value: g.Load(), Max: g.Max()}
		}
	}
	if len(registry.histograms) > 0 {
		v.Histograms = make(map[string]HistogramSnapshot, len(registry.histograms))
		for name, h := range registry.histograms {
			v.Histograms[name] = h.snapshot()
		}
	}
	return v
}

// flatten folds a RegistryView into the manifest's flat counter map: every
// counter by name, plus each gauge's level (name) and high-water mark
// (name + ".max").
func (v *RegistryView) flatten() map[string]int64 {
	out := make(map[string]int64, len(v.Counters)+2*len(v.Gauges))
	for name, c := range v.Counters {
		out[name] = c
	}
	for name, g := range v.Gauges {
		out[name] = g.Value
		out[name+".max"] = g.Max
	}
	return out
}

// Snapshot returns the current value of every registered counter, plus each
// gauge's level (name) and high-water mark (name + ".max").
func Snapshot() map[string]int64 {
	return RegistrySnapshot().flatten()
}

// MetricNames returns the registered counter, gauge, and histogram names,
// sorted.
func MetricNames() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := append(sortedKeys(registry.counters), sortedKeys(registry.gauges)...)
	names = append(names, sortedKeys(registry.histograms)...)
	slices.Sort(names)
	return names
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
