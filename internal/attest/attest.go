// Package attest defines the attestation protocol messages exchanged
// between an application runtime and PALÆMON (§IV-A), and between clients
// and a managed PALÆMON instance (§IV-B).
//
// The runtime creates an ephemeral key pair, obtains a quote from the local
// quoting enclave binding the public key hash, and ships the quote with its
// policy/service name over a fresh TLS connection. The paper has PALÆMON
// verify that (i) the TLS client key matches the quoted key hash, (ii) the
// policy and service exist and the MRE is permitted, (iii) the platform is
// permitted — then release the configuration: arguments, environment,
// file-system keys and tags, and the injection secrets. Checks (ii) and
// (iii) are implemented; (i) is not yet: the quote binds the presented
// session key, but no code proves the TLS peer holds it (ROADMAP item 20b).
package attest

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"

	"palaemon/internal/cryptoutil"
	"palaemon/internal/sgx"
)

// Protocol errors a verifier can return; they deliberately do not reveal
// which check failed beyond what the caller legitimately learns.
var (
	// ErrKeyMismatch reports that the quoted key hash does not match the
	// presented session key.
	ErrKeyMismatch = errors.New("attest: session key does not match quote report data")
	// ErrQuoteInvalid reports quote signature failure.
	ErrQuoteInvalid = errors.New("attest: quote verification failed")
	// ErrMRENotPermitted reports an MRE outside the policy.
	ErrMRENotPermitted = errors.New("attest: MRENCLAVE not permitted by policy")
	// ErrPlatformNotPermitted reports a platform outside the policy.
	ErrPlatformNotPermitted = errors.New("attest: platform not permitted by policy")
)

// Evidence is what an attesting application presents.
type Evidence struct {
	// PolicyName and ServiceName select the policy entry (the policy name
	// travels in an unprotected environment variable, §IV-A — it is an
	// identifier, not a secret).
	PolicyName  string `json:"policy_name"`
	ServiceName string `json:"service_name"`
	// SessionKey is the application's ephemeral public key; its hash must
	// equal the quote's report data.
	SessionKey []byte `json:"session_key"`
	// Quote is the platform quote over the key hash.
	Quote sgx.Quote `json:"quote"`
}

// NewEvidence builds evidence for an enclave and session key.
func NewEvidence(e *sgx.Enclave, policyName, serviceName string, sessionKey ed25519.PublicKey) Evidence {
	h := KeyHash(sessionKey)
	return Evidence{
		PolicyName:  policyName,
		ServiceName: serviceName,
		SessionKey:  append([]byte(nil), sessionKey...),
		Quote:       e.GetQuote(h[:]),
	}
}

// KeyHash is the binding between a session key and quote report data.
func KeyHash(key []byte) [32]byte { return sha256.Sum256(key) }

// VerifyBinding checks that the evidence's session key matches the quoted
// report data and that the quote signature verifies under the platform
// quoting key.
func VerifyBinding(ev Evidence, quotingKey ed25519.PublicKey) error {
	// Constant-time: a byte-at-a-time early exit here is a timing oracle
	// on the expected report data. hmac.Equal also treats unequal lengths
	// as a mismatch.
	h := KeyHash(ev.SessionKey)
	if !hmac.Equal(ev.Quote.ReportData, h[:]) {
		return ErrKeyMismatch
	}
	if err := sgx.VerifyQuote(ev.Quote, quotingKey); err != nil {
		return fmt.Errorf("%w: %v", ErrQuoteInvalid, err)
	}
	return nil
}

// Challenge/response for peers that already know a public key: prove
// possession of the corresponding private key (used by clients attesting a
// PALÆMON instance identified by its public key, §IV-B).
type Challenge struct {
	// Nonce is the verifier's fresh randomness.
	Nonce []byte `json:"nonce"`
}

// NewChallenge draws a fresh 32-byte nonce.
func NewChallenge() (Challenge, error) {
	k, err := cryptoutil.NewKey()
	if err != nil {
		return Challenge{}, err
	}
	return Challenge{Nonce: k[:]}, nil
}

// Response is the prover's signature over the nonce and context label.
type Response struct {
	Signature []byte `json:"signature"`
}

// Respond signs the challenge under the instance identity key.
func Respond(ch Challenge, signer *cryptoutil.Signer, context string) Response {
	return Response{Signature: signer.Sign(challengeBytes(ch, context))}
}

// VerifyResponse checks the proof of possession.
func VerifyResponse(ch Challenge, resp Response, pub ed25519.PublicKey, context string) error {
	if !cryptoutil.Verify(pub, challengeBytes(ch, context), resp.Signature) {
		return errors.New("attest: challenge response invalid")
	}
	return nil
}

func challengeBytes(ch Challenge, context string) []byte {
	buf := make([]byte, 0, len(ch.Nonce)+len(context)+1)
	buf = append(buf, ch.Nonce...)
	buf = append(buf, 0)
	buf = append(buf, context...)
	return buf
}
