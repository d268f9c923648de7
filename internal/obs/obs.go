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
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
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

// MaxRequestIDLen bounds a client-supplied request ID (see ValidRequestID).
const MaxRequestIDLen = 64

// requestIDs mints IDs from one crypto/rand seed per process and a
// counter: every ID is distinct within the process, unpredictable
// across processes, and costs no read of the system's entropy source.
var requestIDs struct {
	seed uint64
	ctr  atomic.Uint64
}

func init() {
	var b [8]byte
	// crypto/rand never fails on supported platforms; a zero seed still
	// yields distinct (if predictable) IDs.
	_, _ = rand.Read(b[:])
	requestIDs.seed = binary.LittleEndian.Uint64(b[:])
}

// NewRequestID returns a fresh 16-hex-char correlation ID.
func NewRequestID() string {
	x := requestIDs.seed + requestIDs.ctr.Add(1)*0x9e3779b97f4a7c15
	// splitmix64's finalizer: consecutive counters give unrelated IDs.
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], x)
	var out [16]byte
	hex.Encode(out[:], b[:])
	return string(out[:])
}

// ValidRequestID reports whether a client-supplied request ID may be
// adopted: 1 to MaxRequestIDLen bytes of [A-Za-z0-9._:-]. Anything else
// gets a fresh ID instead, so a client cannot park large or
// header-breaking values in every trace and peer hop.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > MaxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// WithRequestID returns ctx carrying the correlation ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the correlation ID carried by ctx ("" when none): the
// ID of the trace it carries, else the one WithRequestID set.
func RequestID(ctx context.Context) string {
	if tr, _ := ctx.Value(traceKey).(*Trace); tr != nil {
		return tr.id
	}
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
