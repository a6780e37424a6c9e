// Request correlation (DESIGN.md §18): one hottilesd request carries one
// ID, from X-Request-ID or the W3C traceparent header or minted, through
// its response header, span tree and every log line. The request's logger,
// tagged with the ID, and its span ride the context, so planstore and
// hotcore tag their records without knowing about HTTP.
package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
)

// RequestIDHeader is the header requests supply (and responses echo) the
// request ID on.
const RequestIDHeader = "X-Request-ID"

// TraceparentHeader is the W3C trace-context header; its trace-id field is
// accepted as a request ID when no X-Request-ID is present.
const TraceparentHeader = "traceparent"

type ctxKey int

const (
	ctxKeyLogger ctxKey = iota
	ctxKeySpan
)

// WithLogger returns ctx carrying a request-scoped logger.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, ctxKeyLogger, l)
}

// CtxLog returns the logger on ctx. Absent one it returns a shared logger
// that discards every record, so callers log unconditionally.
func CtxLog(ctx context.Context) *slog.Logger {
	if ctx == nil {
		return discardLog
	}
	if l, _ := ctx.Value(ctxKeyLogger).(*slog.Logger); l != nil {
		return l
	}
	return discardLog
}

// WithSpan returns ctx carrying the current span, so lower layers attach
// children to the request's span tree.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKeySpan, s)
}

// CtxSpan returns the span on ctx (nil, a valid no-op span, when absent).
func CtxSpan(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKeySpan).(*Span)
	return s
}

// mintFallback feeds MintRequestID when the system randomness source fails;
// monotonic so IDs stay unique within the process.
var mintFallback atomic.Uint64

// MintRequestID returns a fresh 16-hex-char request ID.
func MintRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], mintFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen bounds accepted inbound IDs so a hostile client cannot
// bloat the flight recorder or log stream.
const maxRequestIDLen = 64

// ValidRequestID reports whether s is acceptable as an inbound request ID:
// 1–64 characters from [A-Za-z0-9._-].
func ValidRequestID(s string) bool {
	if len(s) == 0 || len(s) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// InboundRequestID extracts a request ID from inbound headers: a valid
// X-Request-ID wins, else the traceparent trace-id. Returns "" when neither
// yields one (the caller mints).
func InboundRequestID(h http.Header) string {
	if id := h.Get(RequestIDHeader); ValidRequestID(id) {
		return id
	}
	return traceparentID(h.Get(TraceparentHeader))
}

// traceparentID extracts the trace-id from a W3C traceparent value
// ("00-<32 hex>-<16 hex>-<2 hex>"), or "" if malformed or all-zero.
func traceparentID(v string) string {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || len(parts[1]) != 32 {
		return ""
	}
	id := strings.ToLower(parts[1])
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return ""
	}
	return id
}
