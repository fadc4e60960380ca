package core

import (
	"mime"
	"net/http"
	"sort"
	"strings"

	"palaemon/internal/wire"
)

// route is one row of the server's route table. Patterns carry no method:
// dispatch selects by method itself so a mismatch yields the structured
// envelope (405 + method_not_allowed), never net/http's plain-text page.
type route struct {
	pattern string
	methods map[string]http.HandlerFunc
	// ungated rows are rate-limited but exempt from the concurrency gate:
	// a parked long-poll holding a slot for up to maxWatchWindow would let
	// idle pollers starve real work.
	ungated bool
	// fleetOnly rows exist only with ServerOptions.Fleet.
	fleetOnly bool
}

// routes is the whole HTTP surface of the measured binary: every path a
// client can reach is a row here, and mount puts every row behind
// admission control and the method/content-type dispatcher. The pattern
// strings are also the `route` metric label.
func (s *Server) routes() []route {
	const get, post, put, del = http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete
	type m = map[string]http.HandlerFunc
	return []route{
		{pattern: wire.PathPrefix + "/policies", methods: m{get: s.v2ListPolicies, post: s.v2CreatePolicy}},
		{pattern: wire.PathPrefix + "/policies/{name}", methods: m{get: s.v2ReadPolicy, put: s.v2UpdatePolicy, del: s.v2DeletePolicy}},
		{pattern: wire.PathPrefix + "/policies/{name}/secrets", methods: m{post: s.v2FetchSecrets}},
		{pattern: wire.PathPrefix + "/policies/{name}/watch", methods: m{get: s.v2WatchPolicy}, ungated: true},
		{pattern: wire.PathPrefix + "/batch", methods: m{post: s.v2Batch}},
		{pattern: wire.PathPrefix + "/attest", methods: m{post: s.v2Attest}},
		{pattern: wire.PathPrefix + "/tags", methods: m{post: s.v2PushTag}},
		{pattern: wire.PathPrefix + "/tags/{policy}/{service}", methods: m{get: s.v2ReadTag}},
		{pattern: wire.PathPrefix + "/exit", methods: m{post: s.v2Exit}},
		{pattern: wire.PathPrefix + "/attestation", methods: m{get: s.v2Attestation}},
		{pattern: wire.PathPrefix + "/challenge", methods: m{post: s.v2Challenge}},
		// The discovery document needs no client certificate: a client must
		// be able to bootstrap routing before it has talked to any shard, and
		// the document's integrity comes from its signature, not the channel.
		{pattern: wire.PathPrefix + "/fleet", methods: m{get: s.v2FleetDoc}, fleetOnly: true},
		{pattern: wire.PathPrefix + "/repl/state", methods: m{get: s.v2ReplState}, fleetOnly: true},
		{pattern: wire.PathPrefix + "/repl/tail", methods: m{get: s.v2ReplTail}, ungated: true, fleetOnly: true},
	}
}

// mount registers the route table on mux — the only function in this
// package allowed to (palaemonvet's envelopewriter enforces it). Every
// other path, unversioned or misspelt, falls to the catch-all, which is
// admitted too so probing cannot bypass the rate limit.
func (s *Server) mount(mux *http.ServeMux) {
	for _, rt := range s.routes() {
		if rt.fleetOnly && s.fleet == nil {
			continue
		}
		mux.HandleFunc(rt.pattern, s.admit(!rt.ungated, dispatch(rt.methods)))
	}
	mux.HandleFunc("/", s.admit(true, func(w http.ResponseWriter, r *http.Request) {
		writeWireErr(w, r, wire.NewError(wire.CodeNotFound, http.StatusNotFound, false,
			"core: unknown path "+r.URL.Path))
	}))
}

// dispatch selects a row's handler by method and enforces the JSON content
// type on bodied requests, answering violations with the structured
// envelope.
func dispatch(methods map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		h, ok := methods[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			writeWireErr(w, r, wire.NewError(wire.CodeMethodNotAllowed, http.StatusMethodNotAllowed, false,
				"core: method "+r.Method+" not allowed on "+r.URL.Path))
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" && (r.Method == http.MethodPost || r.Method == http.MethodPut) {
			if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
				writeWireErr(w, r, wire.NewError(wire.CodeUnsupportedMedia, http.StatusUnsupportedMediaType, false,
					"core: request bodies must be application/json, got "+ct))
				return
			}
		}
		h(w, r)
	}
}
