package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// Request is the per-request observability state: a generated ID, the
// tenant (client-certificate fingerprint prefix, or "anon"), and the wire
// error code the handler resolved to, if any. The struct is written by
// the handler goroutine and read by the middleware after the handler
// returns — same goroutine, so plain fields suffice.
type Request struct {
	// ID is the request correlation ID (16 hex chars), generated at the
	// server edge and threaded through core ops via the context.
	ID string
	// Tenant is the short client identity used as a metric label.
	Tenant string
	// Peer is the SHA-256 fingerprint of the client certificate and
	// HasPeer whether one was presented: the server edge hashes it once,
	// for Tenant, and everything behind it reads it from here.
	Peer    [32]byte
	HasPeer bool

	code string
}

// SetCode records the wire error code the response carried. Nil-safe, so
// error writers call it unconditionally.
func (rq *Request) SetCode(code string) {
	if rq != nil {
		rq.code = code
	}
}

// Code returns the recorded wire error code ("" = success). Nil-safe.
func (rq *Request) Code() string {
	if rq == nil {
		return ""
	}
	return rq.code
}

type requestKey struct{}

// WithRequest attaches the per-request state to the context.
func WithRequest(ctx context.Context, rq *Request) context.Context {
	return context.WithValue(ctx, requestKey{}, rq)
}

// RequestFrom returns the per-request state, or nil outside a request.
func RequestFrom(ctx context.Context) *Request {
	rq, _ := ctx.Value(requestKey{}).(*Request)
	return rq
}

// RequestID returns the correlation ID carried by ctx, or "" when the
// call did not arrive through the instrumented server edge.
func RequestID(ctx context.Context) string {
	if rq := RequestFrom(ctx); rq != nil {
		return rq.ID
	}
	return ""
}

var (
	reqSeq  atomic.Uint64
	reqBase = func() uint64 {
		var b [8]byte
		// crypto/rand never fails on supported platforms; a zero base
		// still yields unique in-process IDs, just predictable ones.
		_, _ = rand.Read(b[:])
		return binary.BigEndian.Uint64(b[:])
	}()
)

// NewRequestID generates a 64-bit correlation ID in hex: a process-random
// base XORed with an atomic sequence. Unique within a process, scattered
// across restarts, and cheap enough for the per-request hot path (no
// syscall — correlation IDs need uniqueness, not unpredictability).
func NewRequestID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], reqBase^reqSeq.Add(1))
	return hex.EncodeToString(b[:])
}
