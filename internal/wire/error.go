package wire

import "fmt"

// Error is the structured error envelope of the wire protocol. Every
// error the server produces crosses the wire in this shape, so clients
// can branch on the machine-readable Code (which `core` maps back onto its
// sentinel errors), retry on Retryable, and still see the HTTP status the
// server chose.
type Error struct {
	// Code is the machine-readable error class (Code* constants).
	Code string `json:"code"`
	// Message is the human-readable error text (the server-side
	// err.Error(), with enclave-internal detail intact — stakeholders are
	// authenticated principals, not anonymous internet clients).
	Message string `json:"message"`
	// Detail optionally carries auxiliary context (e.g. which batch op
	// index failed, or the revision a conflict was detected at).
	Detail string `json:"detail,omitempty"`
	// Retryable reports that the same request may succeed if re-issued
	// (optimistic-concurrency conflicts, draining instances, admission
	// rejections).
	Retryable bool `json:"retryable,omitempty"`
	// Status is the HTTP status the server answered with, carried in the
	// body so proxies rewriting status lines cannot silently detach it.
	Status int `json:"status"`
	// RetryAfterMS, when non-zero, hints how many milliseconds to wait
	// before re-issuing a Retryable request (admission control sets it to
	// the time until the tenant's next token). The server mirrors it in
	// the Retry-After header (whole seconds, rounded up) for generic HTTP
	// tooling; the envelope field keeps millisecond precision.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Redirect, set on CodeWrongShard, is the base URL of the shard that
	// owns the request's policy: a fleet client re-issues there directly
	// (and refreshes the signed discovery document, since a misroute
	// means its shard map is stale).
	Redirect string `json:"redirect,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s [%s, HTTP %d]", e.Message, e.Code, e.Status)
}

// Wire error codes. The set is append-only: removing or renaming a code is
// a protocol break.
const (
	// CodeBadRequest reports an undecodable or malformed request body.
	CodeBadRequest = "bad_request"
	// CodeInvalidPolicy reports a policy that fails validation.
	CodeInvalidPolicy = "invalid_policy"
	// CodeMethodNotAllowed reports a known path with the wrong HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnsupportedMedia reports a request body that is not JSON.
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeNotFound reports a path outside the route table, or a secret name
	// the policy does not define.
	CodeNotFound = "not_found"
	// CodePolicyNotFound reports a missing policy (or service).
	CodePolicyNotFound = "policy_not_found"
	// CodeAccessDenied reports a client-certificate mismatch.
	CodeAccessDenied = "access_denied"
	// CodeBoardRejected reports a policy-board quorum failure.
	CodeBoardRejected = "board_rejected"
	// CodePolicyExists reports a create with a taken name.
	CodePolicyExists = "policy_exists"
	// CodeConflict reports an optimistic-concurrency failure; retryable.
	CodeConflict = "conflict"
	// CodeAttestation reports application attestation failure.
	CodeAttestation = "attestation_failed"
	// CodeStrictRestart reports a strict-mode restart refusal (§III-D).
	CodeStrictRestart = "strict_restart"
	// CodeStaleTag reports a tag push from a superseded session.
	CodeStaleTag = "stale_tag"
	// CodeDraining reports an instance shutting down; retryable elsewhere.
	CodeDraining = "draining"
	// CodeBatchTooLarge reports a batch exceeding MaxBatchOps.
	CodeBatchTooLarge = "batch_too_large"
	// CodePayloadTooLarge reports a request body exceeding the wire cap
	// (MaxResponseBytes — the cap is symmetric). Not retryable: the same
	// body will be refused again.
	CodePayloadTooLarge = "payload_too_large"
	// CodeResourceExhausted reports an admission-control rejection: the
	// tenant exceeded its rate limit, or the instance-wide concurrency
	// gate is full. Retryable after the RetryAfterMS hint.
	CodeResourceExhausted = "resource_exhausted"
	// CodeInternal reports an unclassified server-side failure.
	CodeInternal = "internal"
	// CodeWrongShard reports a policy-scoped request that reached a fleet
	// shard which does not own the policy. The envelope's Redirect field
	// carries the owner's endpoint; not retryable against the same shard.
	CodeWrongShard = "wrong_shard"
	// CodeReplTruncated reports a follower tail position older than the
	// leader's retained entry window: the follower must re-bootstrap from
	// /v2/repl/state instead of tailing.
	CodeReplTruncated = "repl_truncated"
	// CodeReplDenied reports a /v2/repl/* request from a client that is
	// not a registered follower of this shard (the feed carries secret
	// material, so it is fingerprint-gated like policy reads).
	CodeReplDenied = "repl_denied"
	// CodeReplUncertain reports a mutation that was applied locally but
	// whose replication could not be confirmed before the shard's
	// follower detached (a failover in progress). The write MUST NOT be
	// treated as acknowledged: it may not survive the promotion. Clients
	// retry — against the promoted shard once the refreshed discovery
	// document names it.
	CodeReplUncertain = "repl_uncertain"
)

// NewError builds an envelope.
func NewError(code string, status int, retryable bool, message string) *Error {
	return &Error{Code: code, Message: message, Retryable: retryable, Status: status}
}
