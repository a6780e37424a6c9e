// Package obs is a stub mirroring repro/internal/obs's registration
// surface for the metricname analyzer tests.
package obs

type Counter struct{}
type Gauge struct{}
type Histogram struct{}
type Timeline struct{}

func NewCounter(name string) *Counter     { return &Counter{} }
func NewGauge(name string) *Gauge         { return &Gauge{} }
func NewHistogram(name string) *Histogram { return &Histogram{} }

func (t *Timeline) TrackID(name string) int32 { return 0 }

type Attr struct{ Key, Val string }

func Str(key, val string) Attr         { return Attr{key, val} }
func Int(key string, val int) Attr     { return Attr{Key: key} }
func F64(key string, val float64) Attr { return Attr{Key: key} }
