package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
	"palaemon/internal/wire"
)

// This file holds the typed handlers behind the route table (routes.go,
// DESIGN.md §9). Everything — success payloads, errors, method and
// content-type refusals — is expressed in the wire contract package, so
// the server and the typed Client share one source of truth.

// Watch long-poll bounds: the default window when the client names none,
// and the cap protecting the server from immortal polls.
const (
	defaultWatchWindow = 10 * time.Second
	maxWatchWindow     = 60 * time.Second
)

// maxRequestPresize is the most a request's Content-Length header may
// allocate before a body byte is read: room for any policy the tests or the
// benchmark post, and two orders of magnitude under the message cap.
const maxRequestPresize = 64 << 10

// writeWireErr renders err as the wire envelope, recording the code in the
// request's obs state for the canonical log line and the error counter.
func writeWireErr(w http.ResponseWriter, r *http.Request, err error) {
	e := wireFromError(err)
	obs.RequestFrom(r.Context()).SetCode(e.Code)
	writeJSON(w, e.Status, e)
}

// decodeBodyV2 reads the whole request body, bounded by the contract's
// symmetric message cap, and decodes it as one JSON value: anything after
// that value is a malformed request, not a second message to ignore.
// Failures are bad_request envelopes — except overflow of the cap, which
// MaxBytesReader reports explicitly and maps to the distinct
// payload_too_large code (the io.LimitReader it replaced silently
// truncated, surfacing as a misleading syntax error or even decoding a
// valid prefix of the oversized body).
//
// The declared length comes from a peer that has proven nothing yet, so it
// sizes the buffer only up to maxRequestPresize; a larger body grows the
// buffer with the bytes that actually arrive, as json.Decoder's did.
func decodeBodyV2(w http.ResponseWriter, r *http.Request, v any) error {
	defer r.Body.Close()
	raw, err := readSized(http.MaxBytesReader(w, r.Body, wire.MaxResponseBytes), min(r.ContentLength, maxRequestPresize))
	if err == nil {
		err = wire.Unmarshal(raw, v)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w (limit %d bytes)", ErrPayloadTooLarge, mbe.Limit)
		}
		return wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
			"core: decode request body: "+err.Error())
	}
	return nil
}

// clientIDV2 extracts the client certificate identity or fails with the
// structured access_denied envelope.
func clientIDV2(w http.ResponseWriter, r *http.Request) (ClientID, bool) {
	id, ok := clientID(r)
	if !ok {
		writeWireErr(w, r, ErrAccessDenied)
	}
	return id, ok
}

// --- Policy CRUD -------------------------------------------------------------

func (s *Server) v2CreatePolicy(w http.ResponseWriter, r *http.Request) {
	id, ok := clientIDV2(w, r)
	if !ok {
		return
	}
	var p policy.Policy
	if err := decodeBodyV2(w, r, &p); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if !s.shardCheck(w, r, p.Name) {
		return
	}
	if err := s.inst.CreatePolicy(r.Context(), id, &p); err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, wire.NameResponse{Name: p.Name})
}

func (s *Server) v2ReadPolicy(w http.ResponseWriter, r *http.Request) {
	id, ok := clientIDV2(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if !s.shardCheck(w, r, name) {
		return
	}
	// Conditional read: when the presented ETag still matches the stored
	// (CreateID, Revision) — answered from the policy cache's decoded
	// snapshot — reply 304 with no body, no policy clone, no board round
	// trip. The full read below remains the slow path.
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if ver, err := s.inst.PeekPolicyVersionFor(id, name); err == nil &&
			wire.ETag(ver.CreateID, ver.Revision) == inm {
			w.Header().Set("ETag", inm)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		// Mismatch or error: fall through; the authoritative read reports
		// the policy (or the error) itself.
	}
	p, err := s.inst.ReadPolicy(r.Context(), id, name)
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	w.Header().Set("ETag", wire.ETag(p.CreateID, p.Revision))
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) v2UpdatePolicy(w http.ResponseWriter, r *http.Request) {
	id, ok := clientIDV2(w, r)
	if !ok {
		return
	}
	var p policy.Policy
	if err := decodeBodyV2(w, r, &p); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if p.Name != r.PathValue("name") {
		writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
			"core: policy name mismatch between path and body"))
		return
	}
	if !s.shardCheck(w, r, p.Name) {
		return
	}
	if err := s.inst.UpdatePolicy(r.Context(), id, &p); err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.NameResponse{Name: p.Name})
}

func (s *Server) v2DeletePolicy(w http.ResponseWriter, r *http.Request) {
	id, ok := clientIDV2(w, r)
	if !ok {
		return
	}
	if !s.shardCheck(w, r, r.PathValue("name")) {
		return
	}
	if err := s.inst.DeletePolicy(r.Context(), id, r.PathValue("name")); err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.DeleteResponse{Deleted: r.PathValue("name")})
}

// --- Listing and watching ----------------------------------------------------

func (s *Server) v2ListPolicies(w http.ResponseWriter, r *http.Request) {
	if _, ok := clientIDV2(w, r); !ok {
		return
	}
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: limit must be a non-negative integer"))
			return
		}
		limit = n
	}
	names, total, next, err := s.inst.ListPolicyNamesPage(q.Get("after"), limit)
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.PolicyList{Names: names, Total: total, NextAfter: next})
}

func (s *Server) v2WatchPolicy(w http.ResponseWriter, r *http.Request) {
	id, ok := clientIDV2(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	rev, err := strconv.ParseUint(q.Get("rev"), 10, 64)
	if err != nil {
		writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
			"core: watch requires ?rev=<last seen revision>"))
		return
	}
	// create_id is optional (0 = revision-only comparison) but guards the
	// delete+recreate-on-same-revision case when supplied.
	var createID uint64
	if raw := q.Get("create_id"); raw != "" {
		createID, err = strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: create_id must be an unsigned integer"))
			return
		}
	}
	window := defaultWatchWindow
	if raw := q.Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: timeout_ms must be a non-negative integer"))
			return
		}
		window = time.Duration(ms) * time.Millisecond
	}
	if window > maxWatchWindow {
		window = maxWatchWindow
	}
	name := r.PathValue("name")
	if !s.shardCheck(w, r, name) {
		return
	}
	// The long-poll legitimately outlives the per-request write budget
	// armed by the server wrapper: push the deadline past this poll's
	// window (plus slack to serialize the response).
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(window + watchDeadlineSlack))
	ctx, cancel := context.WithTimeout(r.Context(), window)
	defer cancel()
	res, err := s.inst.WatchPolicy(ctx, id, name, rev, createID)
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.WatchResponse{
		Name:     name,
		Revision: res.Version.Revision,
		CreateID: res.Version.CreateID,
		Changed:  res.Changed,
		Deleted:  res.Deleted,
	})
}

// --- Secrets, batch, attestation, tags ---------------------------------------

func (s *Server) v2FetchSecrets(w http.ResponseWriter, r *http.Request) {
	id, ok := clientIDV2(w, r)
	if !ok {
		return
	}
	var req wire.FetchSecretsRequest
	if err := decodeBodyV2(w, r, &req); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if !s.shardCheck(w, r, r.PathValue("name")) {
		return
	}
	if len(req.Names) == 0 {
		// Every secret: the response depends on the stored revision alone,
		// so the snapshot keeps it encoded. Same gate as FetchSecrets.
		snap, err := s.inst.readGate(r.Context(), id, r.PathValue("name"))
		if err != nil {
			writeWireErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, snap.secretsBody())
		return
	}
	secrets, err := s.inst.FetchSecrets(r.Context(), id, r.PathValue("name"), req.Names)
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.SecretsResponse{Secrets: secrets})
}

func (s *Server) v2Batch(w http.ResponseWriter, r *http.Request) {
	// Identity is optional at the envelope level: ops that release policy
	// content check it themselves, tag ops authenticate by session token.
	id, hasID := clientID(r)
	var req wire.BatchRequest
	if err := decodeBodyV2(w, r, &req); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if !s.shardCheckBatch(w, r, req.Ops) {
		return
	}
	results, err := execBatch(r.Context(), s.inst, id, hasID, req.Ops)
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.BatchResponse{Results: results})
}

func (s *Server) v2Attest(w http.ResponseWriter, r *http.Request) {
	var req wire.AttestRequest
	if err := decodeBodyV2(w, r, &req); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if !s.shardCheck(w, r, req.Evidence.PolicyName) {
		return
	}
	cfg, err := s.inst.AttestApplication(r.Context(), req.Evidence, req.QuotingKey)
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, cfg)
}

func (s *Server) v2PushTag(w http.ResponseWriter, r *http.Request) {
	var req wire.TagPush
	if err := decodeBodyV2(w, r, &req); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if err := s.inst.PushTag(req.Token, req.Tag); err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.OKResponse{OK: true})
}

func (s *Server) v2ReadTag(w http.ResponseWriter, r *http.Request) {
	if !s.shardCheck(w, r, r.PathValue("policy")) {
		return
	}
	tag, err := s.inst.ExpectedTag(r.PathValue("policy"), r.PathValue("service"))
	if err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.TagResponse{Tag: tag.String()})
}

func (s *Server) v2Exit(w http.ResponseWriter, r *http.Request) {
	var req wire.TagPush
	if err := decodeBodyV2(w, r, &req); err != nil {
		writeWireErr(w, r, err)
		return
	}
	if err := s.inst.NotifyExit(req.Token, req.Tag); err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.OKResponse{OK: true})
}

func (s *Server) v2Attestation(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.AttestationDoc{
		Report:    s.iasReport,
		PublicKey: s.inst.PublicKey(),
		MRE:       s.inst.MRE().String(),
	})
}

func (s *Server) v2Challenge(w http.ResponseWriter, r *http.Request) {
	var req wire.ChallengeRequest
	if err := decodeBodyV2(w, r, &req); err != nil {
		writeWireErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, attest.Respond(req.Challenge, s.inst.signer, "palaemon-instance"))
}
