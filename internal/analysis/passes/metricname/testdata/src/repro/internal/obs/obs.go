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

type LogLevel int

type Attr struct{ Key, Val string }

type Logger struct{}

func (l *Logger) Debug(msg string, attrs ...Attr)            {}
func (l *Logger) Info(msg string, attrs ...Attr)             {}
func (l *Logger) Warn(msg string, attrs ...Attr)             {}
func (l *Logger) Error(msg string, attrs ...Attr)            {}
func (l *Logger) Log(lv LogLevel, msg string, attrs ...Attr) {}

func Str(key, val string) Attr         { return Attr{key, val} }
func Int(key string, val int) Attr     { return Attr{Key: key} }
func F64(key string, val float64) Attr { return Attr{Key: key} }
