package core

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"palaemon/internal/wire"
)

// This file is the server half of the fleet surface (DESIGN.md §14), the
// fleetOnly rows of the route table (routes.go): GET /v2/fleet serves the
// signed discovery document, GET /v2/repl/state and GET /v2/repl/tail
// feed followers, and shardCheck turns a request
// for a policy this shard does not own into the typed wrong_shard
// envelope carrying the owner's endpoint. The server stays fleet-agnostic:
// everything topology-shaped comes in through FleetHooks, so internal/fleet
// owns the ring and the document and core owns only the wire behavior.

// FleetHooks wires a server into a fleet. All fields are required when
// ServerOptions.Fleet is set.
type FleetHooks struct {
	// Doc returns the current signed discovery document. Called per
	// GET /v2/fleet; the implementation is expected to cache and swap
	// atomically on epoch bumps.
	Doc func() *wire.FleetDoc
	// Owns reports whether this shard owns the named policy; when it does
	// not, redirect is the owner's base URL for the wrong_shard envelope.
	Owns func(policyName string) (owns bool, redirect string)
	// ReplAllowed gates the /v2/repl/* feed to registered followers,
	// identified by client certificate fingerprint. The replication feed
	// carries plaintext record fields — policy secrets included — so it
	// must never be open to ordinary clients.
	ReplAllowed func(follower ClientID) bool
}

// maxReplWait caps the /v2/repl/tail long-poll window, mirroring the
// watch long-poll cap.
const maxReplWait = maxWatchWindow

// shardCheck enforces ring ownership on a policy-addressed request. It
// returns true when the request may proceed; otherwise it has already
// written the wrong_shard envelope, whose Redirect field carries the
// owner's base URL so the caller can re-route without re-fetching the
// discovery document.
func (s *Server) shardCheck(w http.ResponseWriter, r *http.Request, policyName string) bool {
	if s.fleet == nil || policyName == "" {
		return true
	}
	owns, redirect := s.fleet.Owns(policyName)
	if owns {
		return true
	}
	e := wire.NewError(wire.CodeWrongShard, http.StatusMisdirectedRequest, false,
		fmt.Sprintf("core: policy %s is owned by another shard", policyName))
	e.Redirect = redirect
	writeWireErr(w, r, e)
	return false
}

// shardCheckBatch enforces ownership across a whole batch: every
// policy-addressed op must belong to this shard (token-addressed tag ops
// carry no policy name and pass). Mixed-ownership batches are the
// client's bug — the fleet client partitions batches by owner.
func (s *Server) shardCheckBatch(w http.ResponseWriter, r *http.Request, ops []wire.BatchOp) bool {
	for _, op := range ops {
		if !s.shardCheck(w, r, op.Policy) {
			return false
		}
	}
	return true
}

func (s *Server) v2FleetDoc(w http.ResponseWriter, r *http.Request) {
	doc := s.fleet.Doc()
	if doc == nil {
		writeWireErr(w, r, wire.NewError(wire.CodeInternal, http.StatusInternalServerError, true,
			"core: fleet document not yet published"))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// replClient authenticates a /v2/repl/* caller as a registered follower.
func (s *Server) replClient(w http.ResponseWriter, r *http.Request) bool {
	id, ok := clientID(r)
	if !ok || !s.fleet.ReplAllowed(id) {
		writeWireErr(w, r, wire.NewError(wire.CodeReplDenied, http.StatusForbidden, false,
			"core: replication feed is restricted to registered followers"))
		return false
	}
	return true
}

// replWireErr maps the replication sentinels onto their envelope codes.
func replWireErr(err error) error {
	switch {
	case errors.Is(err, ErrReplTruncated):
		// Gone: the follower's position fell out of the retention window;
		// it must re-bootstrap from /v2/repl/state.
		return wire.NewError(wire.CodeReplTruncated, http.StatusGone, false, err.Error())
	case errors.Is(err, ErrReplDisabled):
		return wire.NewError(wire.CodeNotFound, http.StatusNotFound, false, err.Error())
	}
	return err
}

func (s *Server) v2ReplState(w http.ResponseWriter, r *http.Request) {
	if !s.replClient(w, r) {
		return
	}
	st, err := s.inst.ReplState()
	if err != nil {
		writeWireErr(w, r, replWireErr(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) v2ReplTail(w http.ResponseWriter, r *http.Request) {
	if !s.replClient(w, r) {
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
			"core: tail requires ?from=<last applied seq>"))
		return
	}
	max := 0
	if raw := q.Get("max"); raw != "" {
		if max, err = strconv.Atoi(raw); err != nil || max < 0 {
			writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: max must be a non-negative integer"))
			return
		}
	}
	var wait time.Duration
	if raw := q.Get("wait_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			writeWireErr(w, r, wire.NewError(wire.CodeBadRequest, http.StatusBadRequest, false,
				"core: wait_ms must be a non-negative integer"))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > maxReplWait {
		wait = maxReplWait
	}
	if wait > 0 {
		// Like the watch long-poll, the tail outlives the per-request
		// write budget; extend the deadline past this poll's window.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(wait + watchDeadlineSlack))
	}
	resp, err := s.inst.ReplEntries(r.Context(), from, max, wait)
	if err != nil {
		writeWireErr(w, r, replWireErr(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
