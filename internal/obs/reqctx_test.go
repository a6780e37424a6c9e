package obs

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
)

func TestCtxLoggerAndSpan(t *testing.T) {
	var nilCtx context.Context
	if CtxLog(nilCtx) != discardLog || CtxSpan(nilCtx) != nil {
		t.Errorf("nil context must yield the discard logger and a nil span")
	}
	ctx := context.Background()
	if CtxLog(ctx) != discardLog || CtxSpan(ctx) != nil {
		t.Errorf("empty context must yield the discard logger and a nil span")
	}
	// Both are valid no-op receivers.
	if CtxLog(ctx).Enabled(ctx, slog.LevelError) {
		t.Errorf("the discard logger must report every level disabled")
	}
	CtxLog(ctx).Info("test.noop")
	CtxLog(ctx).With("k", "v").WithGroup("g").Error("test.noop")
	CtxSpan(ctx).Start("noop").End()

	l := NewLogger(io.Discard, LogOptions{})
	tr := New("test")
	ctx = WithLogger(WithSpan(ctx, tr.Root()), l)
	if CtxLog(ctx) != l {
		t.Errorf("CtxLog did not round-trip")
	}
	if CtxSpan(ctx) != tr.Root() {
		t.Errorf("CtxSpan did not round-trip")
	}
}

func TestMintRequestID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := MintRequestID()
		if !ValidRequestID(id) {
			t.Fatalf("minted id %q is not valid", id)
		}
		if len(id) != 16 {
			t.Fatalf("minted id %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("minted id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestValidRequestID(t *testing.T) {
	cases := map[string]bool{
		"abc":                        true,
		"A-b_c.9":                    true,
		"":                           false,
		"has space":                  false,
		"has\"quote":                 false,
		strings.Repeat("x", 64):      true,
		strings.Repeat("x", 65):      false,
		"unicode-é":                  false,
		"0123456789abcdef0123456789": true,
	}
	for in, want := range cases {
		if got := ValidRequestID(in); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestInboundRequestID(t *testing.T) {
	mk := func(kv ...string) http.Header {
		h := http.Header{}
		for i := 0; i < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return h
	}
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name string
		h    http.Header
		want string
	}{
		{"none", mk(), ""},
		{"xrid", mk(RequestIDHeader, "client-7"), "client-7"},
		{"xrid-wins", mk(RequestIDHeader, "client-7", TraceparentHeader, tp), "client-7"},
		{"xrid-invalid-falls-through", mk(RequestIDHeader, "bad id!", TraceparentHeader, tp),
			"4bf92f3577b34da6a3ce929d0e0e4736"},
		{"traceparent", mk(TraceparentHeader, tp), "4bf92f3577b34da6a3ce929d0e0e4736"},
		{"traceparent-upper", mk(TraceparentHeader, "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"),
			"4bf92f3577b34da6a3ce929d0e0e4736"},
		{"traceparent-zero", mk(TraceparentHeader, "00-00000000000000000000000000000000-00f067aa0ba902b7-01"), ""},
		{"traceparent-short", mk(TraceparentHeader, "00-abc-def-01"), ""},
		{"traceparent-nonhex", mk(TraceparentHeader, "00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"), ""},
	}
	for _, c := range cases {
		if got := InboundRequestID(c.h); got != c.want {
			t.Errorf("%s: InboundRequestID = %q, want %q", c.name, got, c.want)
		}
	}
}
