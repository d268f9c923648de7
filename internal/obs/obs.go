// Package obs is the fleet's zero-dependency observability layer:
// request correlation IDs carried through contexts and across peer
// hops, named spans recorded into a bounded lock-sharded trace ring
// (exportable as Chrome trace_event JSON), allocation-free log-bucket
// latency histograms with derived quantiles, and WriteProm, which renders
// a struct whose fields declare their Prometheus families in tags. The
// serving tier threads a trace through handler → cache lookup →
// singleflight build → optimizer → compiled-trace replay, so one slow
// /v1/plan opens directly in a trace viewer; the same histograms and one
// tagged snapshot back /metrics in both its JSON and Prometheus forms.
// Everything here is standard library only and safe for concurrent use.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// RequestIDHeader is the HTTP header carrying a request's correlation
// ID. The serving tier echoes it on every response and the cluster
// layer forwards it on peer fetches and fault forwards, so one request
// leaves the same ID on every replica it touches.
const RequestIDHeader = "X-Pland-Request-Id"

type ctxKey int

const (
	requestIDKey ctxKey = iota
	traceKey
)

// NewRequestID returns a fresh 16-hex-char correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still a valid (if non-unique) correlation token.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID returns ctx carrying the correlation ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the correlation ID carried by ctx ("" when none).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// Detach returns a context that carries ctx's observability values
// (request ID, active trace) but none of its cancellation: the shape
// background fills want — work detached from any single request's
// lifetime whose spans still land on the trace of the request that
// initiated it.
func Detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}
