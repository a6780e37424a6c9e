// Package obs is a minimal stub of the real observability layer, placed at
// the matching import-path suffix so spanend's type checks apply to
// testdata code.
package obs

// Tracer mirrors the span-producing surface of the real obs.Tracer.
type Tracer struct{}

// Phase returns a span grouping one pipeline stage.
func (t *Tracer) Phase(name string) *Span { return &Span{} }

// Span mirrors the real obs.Span.
type Span struct{}

// Start opens a child span.
func (s *Span) Start(name string, attrs ...string) *Span { return &Span{} }

// End closes the span.
func (s *Span) End() {}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, val string) {}
