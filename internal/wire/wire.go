// Package wire is the versioned, typed API contract of the PALÆMON
// REST/TLS surface (§IV-B, §IV-E): request/response DTOs, the structured
// error envelope, and the protocol version constant. Server handlers and
// the HTTP client share these types, so the two sides of the wire cannot
// drift apart silently — the golden-file tests pin the encoded forms.
//
// There is one protocol, rooted at /v2: these DTOs, the Error envelope,
// paginated listing, batched operations, revision-based conditional reads
// (ETag), and the policy watch long-poll. Every path outside the server's
// route table answers the not_found envelope.
//
// The package sits below core (core imports wire, never the reverse), so
// it may only depend on leaf packages: policy, attest, fspf, ias,
// cryptoutil.
package wire

import (
	"fmt"
	"strconv"
	"strings"

	"palaemon/internal/attest"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/ias"
	"palaemon/internal/policy"
)

// Version is the wire protocol generation these DTOs describe.
const Version = 2

// PathPrefix roots every endpoint.
const PathPrefix = "/v2"

// MaxBatchOps bounds one BatchRequest; larger batches are refused with
// CodeBatchTooLarge rather than silently truncated.
const MaxBatchOps = 256

// MaxResponseBytes is the response-size cap both sides agree on: the
// client refuses to buffer more, and the contract makes the limit explicit
// instead of a mysterious truncated-JSON decode failure.
const MaxResponseBytes = 8 << 20

// --- Common envelopes --------------------------------------------------------

// NameResponse acknowledges an operation on a named policy.
type NameResponse struct {
	Name string `json:"name"`
}

// DeleteResponse acknowledges a policy deletion.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// OKResponse acknowledges an operation with no other payload.
type OKResponse struct {
	OK bool `json:"ok"`
}

// --- Policy CRUD, listing, watching ------------------------------------------

// PolicyList is one page of GET /v2/policies. Policy names are not secret
// (DESIGN.md §9); contents stay guarded by the two-stage read gate.
type PolicyList struct {
	// Names is the page, in sorted order.
	Names []string `json:"names"`
	// Total is the number of stored policies at listing time.
	Total int `json:"total"`
	// NextAfter, when non-empty, is the cursor for the next page: pass it
	// as ?after= to continue. Empty means the listing is complete.
	NextAfter string `json:"next_after,omitempty"`
}

// FetchSecretsRequest selects secrets to retrieve; empty Names fetches all.
type FetchSecretsRequest struct {
	Names []string `json:"names,omitempty"`
}

// SecretsResponse carries released secret values.
type SecretsResponse struct {
	Secrets map[string]string `json:"secrets"`
}

// WatchResponse answers GET /v2/policies/{name}/watch?rev=N: the long-poll
// returns as soon as the stored policy differs from revision N (or is
// deleted), or with Changed=false when the poll window expires first.
type WatchResponse struct {
	// Name echoes the watched policy.
	Name string `json:"name"`
	// Revision/CreateID identify the stored version observed at return
	// time (zero when Deleted).
	Revision uint64 `json:"revision"`
	CreateID uint64 `json:"create_id"`
	// Changed reports that the policy moved past the watched revision
	// (including deletion); false means the poll timed out and the caller
	// should re-arm with the same revision.
	Changed bool `json:"changed"`
	// Deleted reports that the policy no longer exists.
	Deleted bool `json:"deleted"`
}

// --- Conditional reads -------------------------------------------------------

// ETag renders the strong entity tag of a stored policy version for
// If-None-Match conditional reads: the (CreateID, Revision) pair, which is
// exactly the identity the instance's optimistic-concurrency checks use
// (Revision alone is not enough — a delete+recreate restarts it at 1).
func ETag(createID, revision uint64) string {
	return fmt.Sprintf("\"%016x-%d\"", createID, revision)
}

// ParseETag inverts ETag. ok is false for foreign or malformed tags.
func ParseETag(tag string) (createID, revision uint64, ok bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(tag, "\""), "\"")
	dash := strings.LastIndexByte(s, '-')
	if dash != 16 || len(s) < 18 {
		return 0, 0, false
	}
	c, err := strconv.ParseUint(s[:dash], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	r, err := strconv.ParseUint(s[dash+1:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return c, r, true
}

// --- Attestation and tag protocol --------------------------------------------

// AttestRequest carries application evidence plus the platform quoting key
// (simulated-platform transport of a value PALÆMON would hold already).
type AttestRequest struct {
	Evidence   attest.Evidence `json:"evidence"`
	QuotingKey []byte          `json:"quoting_key"`
}

// AppConfig is the configuration PALÆMON releases to an attested
// application (§IV-A): command line, environment, file-system keys and
// tags, and the injection files with secrets substituted.
type AppConfig struct {
	// Command is the command line with secrets substituted.
	Command string `json:"command"`
	// Environment carries substituted environment variables.
	Environment map[string]string `json:"environment,omitempty"`
	// FSPFKey is the file-system shield key.
	FSPFKey cryptoutil.Key `json:"fspf_key"`
	// ExpectedTag is the tag the runtime must verify on volume open; zero
	// for a fresh volume.
	ExpectedTag fspf.Tag `json:"expected_tag"`
	// InjectionFiles map path -> content with secrets substituted.
	InjectionFiles map[string]string `json:"injection_files,omitempty"`
	// Secrets carries the policy's secret values for the runtime's own
	// variable substitution on reads.
	Secrets map[string]string `json:"secrets,omitempty"`
	// SessionToken authenticates subsequent tag pushes for this execution.
	SessionToken string `json:"session_token"`
	// Epoch is this execution's tag-push epoch.
	Epoch uint64 `json:"epoch"`
	// StrictMode echoes the policy's strict flag.
	StrictMode bool `json:"strict_mode"`
}

// TagPush carries a tag update or exit notification for a session.
type TagPush struct {
	Token string   `json:"token"`
	Tag   fspf.Tag `json:"tag"`
}

// TagResponse carries a stored expected tag.
type TagResponse struct {
	Tag string `json:"tag"`
}

// AttestationDoc is the explicit-attestation bundle (§IV-B): the IAS
// report binding the instance identity key to the PALÆMON MRE.
type AttestationDoc struct {
	Report    *ias.Report `json:"report,omitempty"`
	PublicKey []byte      `json:"public_key"`
	MRE       string      `json:"mre"`
}

// ChallengeRequest asks the instance to prove possession of its identity
// key.
type ChallengeRequest struct {
	Challenge attest.Challenge `json:"challenge"`
}

// --- Batch -------------------------------------------------------------------

// Batch operation kinds.
const (
	// OpFetchSecrets retrieves secrets of one policy (Policy, Names).
	OpFetchSecrets = "fetch_secrets"
	// OpReadPolicy reads one full policy (Policy).
	OpReadPolicy = "read_policy"
	// OpReadTag reads a service's expected tag (Policy, Service).
	OpReadTag = "read_tag"
	// OpPushTag pushes an expected tag for a session (Token, Tag).
	OpPushTag = "push_tag"
	// OpNotifyExit records a clean exit with the final tag (Token, Tag).
	OpNotifyExit = "notify_exit"
)

// BatchOp is one operation inside POST /v2/batch. Exactly the fields the
// selected Op needs are set; the rest stay zero.
type BatchOp struct {
	// Op selects the operation (Op* constants).
	Op string `json:"op"`
	// Policy names the target policy (fetch_secrets, read_policy,
	// read_tag).
	Policy string `json:"policy,omitempty"`
	// Service names the target service (read_tag).
	Service string `json:"service,omitempty"`
	// Names selects secrets (fetch_secrets); empty fetches all.
	Names []string `json:"names,omitempty"`
	// Token authenticates a session (push_tag, notify_exit).
	Token string `json:"token,omitempty"`
	// Tag is the pushed tag (push_tag, notify_exit).
	Tag *fspf.Tag `json:"tag,omitempty"`
}

// BatchRequest pipelines up to MaxBatchOps heterogeneous operations in one
// round trip — the Fig 12 WAN cost collapses from N round trips to one.
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResult is one operation's outcome. Ops fail independently: a failed
// op carries its Error while its siblings still succeed.
type BatchResult struct {
	// Error is nil on success.
	Error *Error `json:"error,omitempty"`
	// Secrets answers fetch_secrets.
	Secrets map[string]string `json:"secrets,omitempty"`
	// Policy answers read_policy.
	Policy *policy.Policy `json:"policy,omitempty"`
	// Tag answers read_tag.
	Tag string `json:"tag,omitempty"`
	// OK acknowledges push_tag / notify_exit.
	OK bool `json:"ok,omitempty"`
}

// BatchResponse carries one BatchResult per request op, in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}
