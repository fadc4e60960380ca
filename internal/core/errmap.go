package core

import (
	"errors"
	"net/http"
	"time"

	"palaemon/internal/policy"
	"palaemon/internal/wire"
)

// This file is the bidirectional mapping between the core sentinel errors
// and the structured error envelope (wire.Error). The server side
// (wireFromError) classifies an instance error into {code, message,
// retryable, status}; the client side (errorFromWire) reconstructs an
// error that satisfies errors.Is against the same sentinel — so a caller
// cannot tell from the error whether the instance was local or remote.
// A status alone cannot do that (board rejections and access denials share
// 403; strict-restart, stale-tag and attestation refusals share 401); the
// code field keeps the round trip exact.

// sentinelCodes pairs each core sentinel with its wire code, status, and
// retryability. Order matters for classification: more specific sentinels
// come before the broader ones that may wrap them (e.g. a conflict wrapped
// inside an attestation failure classifies as conflict).
var sentinelCodes = []struct {
	sentinel  error
	code      string
	status    int
	retryable bool
}{
	{ErrPolicyNotFound, wire.CodePolicyNotFound, http.StatusNotFound, false},
	{ErrBoardRejected, wire.CodeBoardRejected, http.StatusForbidden, false},
	{ErrAccessDenied, wire.CodeAccessDenied, http.StatusForbidden, false},
	{ErrPolicyExists, wire.CodePolicyExists, http.StatusConflict, false},
	{ErrConflict, wire.CodeConflict, http.StatusPreconditionFailed, true},
	{ErrStrictRestart, wire.CodeStrictRestart, http.StatusUnauthorized, false},
	{ErrStaleTag, wire.CodeStaleTag, http.StatusUnauthorized, false},
	{ErrAttestation, wire.CodeAttestation, http.StatusUnauthorized, false},
	{ErrDraining, wire.CodeDraining, http.StatusServiceUnavailable, true},
	{ErrReplUncertain, wire.CodeReplUncertain, http.StatusServiceUnavailable, true},
	{ErrResourceExhausted, wire.CodeResourceExhausted, http.StatusTooManyRequests, true},
	{ErrPayloadTooLarge, wire.CodePayloadTooLarge, http.StatusRequestEntityTooLarge, false},
}

// policyValidationSentinels are the policy.Validate failures; they map to
// one invalid_policy code (clients fix the policy, they don't branch on
// which field was wrong).
var policyValidationSentinels = []error{
	policy.ErrNoName, policy.ErrBadName, policy.ErrNoServices,
	policy.ErrNoMRE, policy.ErrBadThreshold,
}

// wireFromError classifies err into the envelope. A *wire.Error passes
// through unchanged (handlers that already speak the envelope, e.g. batch
// size refusal).
func wireFromError(err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	for _, m := range sentinelCodes {
		if errors.Is(err, m.sentinel) {
			return wire.NewError(m.code, m.status, m.retryable, err.Error())
		}
	}
	for _, s := range policyValidationSentinels {
		if errors.Is(err, s) {
			return wire.NewError(wire.CodeInvalidPolicy, http.StatusBadRequest, false, err.Error())
		}
	}
	return wire.NewError(wire.CodeInternal, http.StatusInternalServerError, false, err.Error())
}

// codeSentinels inverts sentinelCodes for the client side.
var codeSentinels = func() map[string]error {
	m := make(map[string]error, len(sentinelCodes))
	for _, e := range sentinelCodes {
		m[e.code] = e.sentinel
	}
	return m
}()

// errorFromWire reconstructs a client-side error from the envelope:
// sentinel-coded envelopes wrap the sentinel for errors.Is; anything else
// surfaces the envelope itself, which still reports code and HTTP status
// explicitly.
func errorFromWire(e *wire.Error) error {
	if e == nil {
		return nil
	}
	if sentinel, ok := codeSentinels[e.Code]; ok {
		// The message already carries the sentinel's own text (it is the
		// server-side err.Error()), so wrap without re-prefixing.
		return &remoteSentinelError{sentinel: sentinel, envelope: e}
	}
	return e
}

// remoteSentinelError is a wire envelope that unwraps to both the core
// sentinel (errors.Is works across the wire) and the envelope itself
// (errors.As(*wire.Error) recovers code/status/retryable).
type remoteSentinelError struct {
	sentinel error
	envelope *wire.Error
}

func (e *remoteSentinelError) Error() string { return e.envelope.Message }

func (e *remoteSentinelError) Unwrap() []error { return []error{e.sentinel, e.envelope} }

// Retryable reports whether err is a wire-level retryable failure (an
// optimistic-concurrency conflict, a draining instance, or an admission
// rejection). It works on both local sentinel errors and remote
// envelopes, so in-process and HTTP callers branch identically.
func Retryable(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Retryable
	}
	return errors.Is(err, ErrConflict) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrResourceExhausted)
}

// RetryAfter extracts the server's retry hint from err (zero when absent
// or not an envelope): the wait admission control suggests before
// re-issuing a Retryable request.
func RetryAfter(err error) time.Duration {
	var we *wire.Error
	if errors.As(err, &we) && we.RetryAfterMS > 0 {
		return time.Duration(we.RetryAfterMS) * time.Millisecond
	}
	return 0
}
