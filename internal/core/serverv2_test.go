package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
	"palaemon/internal/simnet"
	"palaemon/internal/wire"
)

// waitForWatchers blocks until at least n watchers are subscribed on
// name's hub entry — the deterministic replacement for the "sleep and
// hope the long-poll armed" synchronization the watch tests used to rely
// on. A subscriber registers with the hub BEFORE peeking the version
// (watchOnce), so once this returns, a mutation cannot slip past the
// watcher unobserved.
func waitForWatchers(t *testing.T, inst *Instance, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		inst.watchers.mu.Lock()
		refs := 0
		if e, ok := inst.watchers.entries[name]; ok {
			refs = e.refs
		}
		inst.watchers.mu.Unlock()
		if refs >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no watcher armed on %q within 5s", name)
}

// decodeEnvelope asserts the body is a v2 structured error envelope and
// returns it.
func decodeEnvelope(t *testing.T, raw []byte) *wire.Error {
	t.Helper()
	var e wire.Error
	if err := json.Unmarshal(raw, &e); err != nil || e.Code == "" {
		t.Fatalf("body is not a structured envelope: %s (err %v)", raw, err)
	}
	return &e
}

// TestV2MethodAndContentType proves wrong methods, wrong content types,
// malformed bodies and unknown paths all answer with the structured
// envelope — never net/http's plain-text error pages.
func TestV2MethodAndContentType(t *testing.T) {
	s := newStack(t)
	authed := rawHTTPClient(t, s, true)

	cases := []struct {
		name        string
		method      string
		path        string
		body        string
		contentType string
		wantStatus  int
		wantCode    string
		wantAllow   string // sorted, so the header is deterministic
	}{
		{"delete on collection", "DELETE", "/v2/policies", "", "", 405, wire.CodeMethodNotAllowed, "GET, POST"},
		{"post on watch", "POST", "/v2/policies/x/watch", "{}", "application/json", 405, wire.CodeMethodNotAllowed, "GET"},
		{"get on batch", "GET", "/v2/batch", "", "", 405, wire.CodeMethodNotAllowed, "POST"},
		{"patch on policy", "PATCH", "/v2/policies/x", "", "", 405, wire.CodeMethodNotAllowed, "DELETE, GET, PUT"},
		{"put on attest", "PUT", "/v2/attest", "{}", "application/json", 405, wire.CodeMethodNotAllowed, "POST"},
		{"non-json content type", "POST", "/v2/policies", "name: x", "text/plain", 415, wire.CodeUnsupportedMedia, ""},
		{"yaml on batch", "POST", "/v2/batch", "ops: []", "application/yaml", 415, wire.CodeUnsupportedMedia, ""},
		{"malformed create body", "POST", "/v2/policies", `{"name":`, "application/json", 400, wire.CodeBadRequest, ""},
		{"malformed batch body", "POST", "/v2/batch", `]`, "application/json", 400, wire.CodeBadRequest, ""},
		{"unknown v2 path", "GET", "/v2/nope", "", "", 404, wire.CodeNotFound, ""},
		{"unversioned path", "GET", "/policies/x", "", "", 404, wire.CodeNotFound, ""},
		{"fleet route on a standalone server", "GET", "/v2/repl/state", "", "", 404, wire.CodeNotFound, ""},
		{"watch without rev", "GET", "/v2/policies/x/watch", "", "", 400, wire.CodeBadRequest, ""},
		{"list with bad limit", "GET", "/v2/policies?limit=-3", "", "", 400, wire.CodeBadRequest, ""},
		{"invalid policy", "POST", "/v2/policies", `{"name":""}`, "application/json", 400, wire.CodeInvalidPolicy, ""},
		{"unknown policy", "GET", "/v2/policies/no-such", "", "", 404, wire.CodePolicyNotFound, ""},
		{"stale token", "POST", "/v2/tags", `{"token":"nope","tag":[0]}`, "application/json", 401, wire.CodeStaleTag, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, s.server.URL()+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := authed.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.wantStatus, raw)
			}
			e := decodeEnvelope(t, raw)
			if e.Code != tc.wantCode {
				t.Fatalf("code %q, want %q; body %s", e.Code, tc.wantCode, raw)
			}
			if e.Status != tc.wantStatus {
				t.Fatalf("envelope status %d does not echo HTTP status %d", e.Status, tc.wantStatus)
			}
			if got := resp.Header.Get("Allow"); got != tc.wantAllow {
				t.Fatalf("Allow = %q, want %q", got, tc.wantAllow)
			}
		})
	}
}

// TestV2ErrorFidelity proves the envelope round-trips sentinel classes a
// bare status cannot tell apart: a board rejection reads back as
// ErrBoardRejected (403, like ErrAccessDenied) and a stale tag as
// ErrStaleTag (401, like ErrAttestation), while the envelope stays
// recoverable via errors.As.
func TestV2ErrorFidelity(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "fidelity")

	// Board-guarded policy with no evaluator configured: every operation
	// on it is board-rejected.
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()
	p := testPolicy("board-pol", mre)
	p.Board = policy.Board{
		Members:   []policy.BoardMember{{Name: "m1", URL: "https://127.0.0.1:1"}},
		Threshold: 1,
	}
	err := cli.CreatePolicy(ctx, p)
	if !errors.Is(err, ErrBoardRejected) {
		t.Fatalf("board rejection read back as %v, want ErrBoardRejected", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("envelope not recoverable from %v", err)
	}
	if we.Code != wire.CodeBoardRejected || we.Status != http.StatusForbidden {
		t.Fatalf("envelope = %+v", we)
	}

	// Stale tag push.
	err = cli.PushTag(ctx, "no-such-token", [32]byte{1}, nil)
	if !errors.Is(err, ErrStaleTag) {
		t.Fatalf("stale push read back as %v, want ErrStaleTag", err)
	}
}

// TestV2ConditionalRead proves the ETag/If-None-Match contract: an
// unchanged policy answers 304 from the cached snapshot revision (no
// body, no re-encode), any change — update, delete+recreate — answers the
// full policy with a fresh ETag.
func TestV2ConditionalRead(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "cond")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()

	if err := cli.CreatePolicy(ctx, testPolicy("cond-pol", mre)); err != nil {
		t.Fatal(err)
	}
	p, err := cli.ReadPolicy(ctx, "cond-pol")
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged: 304, no policy, no decode work.
	statsBefore := s.inst.CacheStats()
	got, modified, err := cli.ReadPolicyIfChanged(ctx, "cond-pol", p.CreateID, p.Revision)
	if err != nil || modified || got != nil {
		t.Fatalf("unchanged conditional read = (%v, %v, %v), want (nil, false, nil)", got, modified, err)
	}
	stats := s.inst.CacheStats().Since(statsBefore)
	if stats.Hits == 0 {
		t.Fatalf("304 did not come from the cached snapshot: %+v", stats)
	}
	if stats.DBReads != 0 {
		t.Fatalf("304 touched the database (%d reads), want pure cache answer", stats.DBReads)
	}

	// Changed: full body with the new revision.
	upd := p.Clone()
	upd.Services[0].Command = "serve --updated"
	if err := cli.UpdatePolicy(ctx, upd); err != nil {
		t.Fatal(err)
	}
	got, modified, err = cli.ReadPolicyIfChanged(ctx, "cond-pol", p.CreateID, p.Revision)
	if err != nil || !modified || got == nil {
		t.Fatalf("changed conditional read = (%v, %v, %v)", got, modified, err)
	}
	if got.Revision != p.Revision+1 {
		t.Fatalf("revision %d, want %d", got.Revision, p.Revision+1)
	}

	// A foreign client gets access_denied, not a 304 oracle.
	other, _ := s.client(t, "cond-other")
	if _, _, err := other.ReadPolicyIfChanged(ctx, "cond-pol", got.CreateID, got.Revision); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("foreign conditional read = %v, want ErrAccessDenied", err)
	}

	// Delete + recreate restarts Revision at 1 but changes CreateID: the
	// stale ETag must NOT match.
	if err := cli.DeletePolicy(ctx, "cond-pol"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreatePolicy(ctx, testPolicy("cond-pol", mre)); err != nil {
		t.Fatal(err)
	}
	fresh, modified, err := cli.ReadPolicyIfChanged(ctx, "cond-pol", got.CreateID, 1)
	if err != nil || !modified || fresh == nil {
		t.Fatalf("post-recreate conditional read = (%v, %v, %v), want full body", fresh, modified, err)
	}
}

// TestV2ListPolicies proves the paginated listing: sorted names, total
// count, and cursor-following until exhaustion.
func TestV2ListPolicies(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "lister")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()

	want := []string{"list-a", "list-b", "list-c", "list-d", "list-e"}
	for _, name := range want {
		if err := cli.CreatePolicy(ctx, testPolicy(name, mre)); err != nil {
			t.Fatal(err)
		}
	}

	var all []string
	after := ""
	pages := 0
	for {
		page, err := cli.ListPolicies(ctx, after, 2)
		if err != nil {
			t.Fatalf("ListPolicies(%q): %v", after, err)
		}
		if page.Total != len(want) {
			t.Fatalf("total %d, want %d", page.Total, len(want))
		}
		all = append(all, page.Names...)
		pages++
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
		if pages > 10 {
			t.Fatal("cursor did not terminate")
		}
	}
	if pages < 3 {
		t.Fatalf("expected >= 3 pages of 2, got %d", pages)
	}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Fatalf("names %v, want %v", all, want)
	}
}

// TestV2WatchPolicy proves the long-poll contract: timeout without a
// change, prompt wake on update with the new revision, and the deletion
// report.
func TestV2WatchPolicy(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "watcher")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()

	if err := cli.CreatePolicy(ctx, testPolicy("watch-pol", mre)); err != nil {
		t.Fatal(err)
	}
	p, err := cli.ReadPolicy(ctx, "watch-pol")
	if err != nil {
		t.Fatal(err)
	}

	// No change: the poll expires with Changed=false.
	res, err := cli.WatchPolicy(ctx, "watch-pol", p.Revision, p.CreateID, 150*time.Millisecond)
	if err != nil {
		t.Fatalf("watch timeout path: %v", err)
	}
	if res.Changed {
		t.Fatalf("unchanged watch reported a change: %+v", res)
	}

	// Concurrent update: the poll returns promptly with the new revision.
	type watchOut struct {
		res *wire.WatchResponse
		err error
	}
	done := make(chan watchOut, 1)
	go func() {
		res, err := cli.WatchPolicy(ctx, "watch-pol", p.Revision, p.CreateID, 5*time.Second)
		done <- watchOut{res, err}
	}()
	// Wait for the long-poll to arm (the hub subscription is registered
	// before the version peek, so an update from here on cannot be lost),
	// then update through a second client (one Client is safe for
	// concurrent use, but two mirrors the real board-approval flow).
	waitForWatchers(t, s.inst, "watch-pol", 1)
	upd := p.Clone()
	upd.Services[0].Command = "serve --watched-update"
	if err := cli.UpdatePolicy(ctx, upd); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("watch: %v", out.err)
		}
		if !out.res.Changed || out.res.Deleted {
			t.Fatalf("watch after update = %+v", out.res)
		}
		if out.res.Revision != p.Revision+1 {
			t.Fatalf("watch revision %d, want %d", out.res.Revision, p.Revision+1)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("watch did not wake on update")
	}

	// Deletion wakes a watcher with Deleted=true.
	go func() {
		res, err := cli.WatchPolicy(ctx, "watch-pol", p.Revision+1, p.CreateID, 5*time.Second)
		done <- watchOut{res, err}
	}()
	waitForWatchers(t, s.inst, "watch-pol", 1)
	if err := cli.DeletePolicy(ctx, "watch-pol"); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("watch delete: %v", out.err)
		}
		if !out.res.Changed || !out.res.Deleted {
			t.Fatalf("watch after delete = %+v", out.res)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("watch did not wake on delete")
	}
}

// TestV2WatchEndsOnDrain proves a pending long-poll does not stall the
// Fig 6 drain: Shutdown wakes the watcher with ErrDraining promptly.
func TestV2WatchEndsOnDrain(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "drain-watcher")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()
	if err := cli.CreatePolicy(ctx, testPolicy("drain-pol", mre)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := cli.WatchPolicy(ctx, "drain-pol", 1, 0, 8*time.Second)
		errCh <- err
	}()
	waitForWatchers(t, s.inst, "drain-pol", 1)
	start := time.Now()
	if err := s.inst.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under pending watch: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("shutdown stalled %v behind the watch", d)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("drained watch = %v, want ErrDraining", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("watch survived the drain")
	}
}

// TestV2BatchMixedOps proves one batch can mix secret fetches across
// policies, policy reads, tag reads, and failing ops — results in order,
// failures independent.
func TestV2BatchMixedOps(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "batcher")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()

	for _, name := range []string{"b-one", "b-two"} {
		if err := cli.CreatePolicy(ctx, testPolicy(name, mre)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := cli.Batch(ctx, []wire.BatchOp{
		{Op: wire.OpFetchSecrets, Policy: "b-one"},
		{Op: wire.OpReadPolicy, Policy: "b-two"},
		{Op: wire.OpReadTag, Policy: "b-one", Service: "app"},
		{Op: wire.OpFetchSecrets, Policy: "no-such"},
		{Op: wire.OpPushTag, Token: "stale"},
		{Op: "frobnicate"},
		{Op: wire.OpFetchSecrets, Policy: "b-one", Names: []string{"api_tokne"}},
	}, nil)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if results[0].Error != nil || results[0].Secrets["api_token"] == "" {
		t.Fatalf("fetch result: %+v", results[0])
	}
	if results[1].Error != nil || results[1].Policy == nil || results[1].Policy.Name != "b-two" {
		t.Fatalf("read result: %+v", results[1])
	}
	if results[2].Error != nil {
		t.Fatalf("read_tag result: %+v", results[2])
	}
	if results[3].Error == nil || results[3].Error.Code != wire.CodePolicyNotFound {
		t.Fatalf("missing-policy op: %+v", results[3])
	}
	if results[4].Error == nil || results[4].Error.Code != wire.CodeBadRequest {
		t.Fatalf("tagless push op: %+v", results[4])
	}
	if results[5].Error == nil || results[5].Error.Code != wire.CodeBadRequest {
		t.Fatalf("unknown op: %+v", results[5])
	}
	// A misspelt secret name is the caller's mistake: not_found, not internal.
	if e := results[6].Error; e == nil || e.Code != wire.CodeNotFound || e.Status != http.StatusNotFound {
		t.Fatalf("unknown-secret op: %+v", results[6])
	}

	// Oversized batches are refused whole, with the explicit code.
	big := make([]wire.BatchOp, wire.MaxBatchOps+1)
	for n := range big {
		big[n] = wire.BatchOp{Op: wire.OpReadTag, Policy: "b-one", Service: "app"}
	}
	_, err = cli.Batch(ctx, big, nil)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBatchTooLarge {
		t.Fatalf("oversized batch = %v", err)
	}
}

// TestV2BatchCollapsesWANRoundTrips is the Fig 12 acceptance check: under
// a modelled intercontinental profile, fetching secrets from 4 policies
// costs 4 round trips sequentially but ONE via /v2/batch — at least a 3×
// reduction in modelled wall-clock.
func TestV2BatchCollapsesWANRoundTrips(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cert, _, err := NewClientCertificate("wan")
	if err != nil {
		t.Fatal(err)
	}
	wan := NewClient(ClientOptions{
		BaseURL:     s.server.URL(),
		Roots:       s.auth.Root().Pool(),
		Certificate: cert,
		Profile:     simnet.KM11000,
	})
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()
	const policies = 4
	names := make([]string, policies)
	for n := range names {
		names[n] = fmt.Sprintf("wan-%d", n)
		if err := wan.CreatePolicy(ctx, testPolicy(names[n], mre)); err != nil {
			t.Fatal(err)
		}
	}

	// Sequential v1-style: one round trip per policy.
	var seq simclock.Tracker
	for _, name := range names {
		if _, err := wan.FetchSecrets(ctx, name, nil, &seq); err != nil {
			t.Fatal(err)
		}
	}

	// Batched: all four policies in one round trip.
	var batched simclock.Tracker
	ops := make([]wire.BatchOp, policies)
	for n, name := range names {
		ops[n] = wire.BatchOp{Op: wire.OpFetchSecrets, Policy: name}
	}
	results, err := wan.Batch(ctx, ops, &batched)
	if err != nil {
		t.Fatal(err)
	}
	for n, res := range results {
		if res.Error != nil || res.Secrets["api_token"] == "" {
			t.Fatalf("batch result %d: %+v", n, res)
		}
	}

	if batched.Total() >= simnet.KM11000.RTT+simnet.KM11000.RTT/2 {
		t.Fatalf("batch cost %v, want ~one %v round trip", batched.Total(), simnet.KM11000.RTT)
	}
	ratio := float64(seq.Total()) / float64(batched.Total())
	if ratio < 3 {
		t.Fatalf("sequential %v / batched %v = %.2fx, want >= 3x", seq.Total(), batched.Total(), ratio)
	}
	t.Logf("modelled WAN: sequential %v, batched %v (%.1fx)", seq.Total(), batched.Total(), ratio)
}

// TestClientResponseTooLarge proves the 8 MiB response cap surfaces as
// the dedicated sentinel, not a JSON decode failure.
func TestClientResponseTooLarge(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		filler := strings.Repeat("x", 1<<20)
		fmt.Fprint(w, `{"mre": "`)
		for i := 0; i < 9; i++ {
			io.WriteString(w, filler)
		}
		fmt.Fprint(w, `"}`)
	}))
	defer huge.Close()
	cli := NewClient(ClientOptions{BaseURL: huge.URL})
	_, err := cli.Attestation(context.Background())
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("oversized response = %v, want ErrResponseTooLarge", err)
	}
}

// TestClientBodySizing covers the three things a response's declared
// length can be when doRaw sizes its read buffer from it: present and
// within the cap (buffer sized once), absent (-1: a chunked response, the
// buffer grows as the body arrives) and over the cap (sizes nothing; the
// cap is enforced on the bytes read, and still reports the sentinel;
// TestClientResponseTooLarge is the chunked body over the cap).
func TestClientBodySizing(t *testing.T) {
	serve := func(size int, declare bool) *Client {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body := `{"mre":"` + strings.Repeat("x", size) + `"}` + "\n"
			w.Header().Set("Content-Type", "application/json")
			if declare {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				io.WriteString(w, body)
				return
			}
			// A flush before the handler returns forces chunked encoding.
			io.WriteString(w, body[:len(body)/2])
			w.(http.Flusher).Flush()
			io.WriteString(w, body[len(body)/2:])
		}))
		t.Cleanup(srv.Close)
		return NewClient(ClientOptions{BaseURL: srv.URL})
	}
	for _, tc := range []struct {
		name    string
		size    int
		declare bool
		wantErr error
	}{
		{"declared, one byte", 1, true, nil},
		{"declared, 100 KiB", 100 << 10, true, nil},
		{"chunked, one byte", 1, false, nil},
		{"chunked, 100 KiB", 100 << 10, false, nil},
		{"declared, over the cap", wire.MaxResponseBytes, true, ErrResponseTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := serve(tc.size, tc.declare).Attestation(context.Background())
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && doc.MRE != strings.Repeat("x", tc.size) {
				t.Fatalf("body of %d bytes arrived as %d", tc.size, len(doc.MRE))
			}
		})
	}
}

// TestRequestPresizeIsClamped is the server's side of the same sizing: a
// request's Content-Length is a claim by a peer that has proven nothing,
// so a header declaring the whole message cap over a two-byte body must
// not buy a cap-sized buffer, and a body larger than the clamp still
// arrives whole.
func TestRequestPresizeIsClamped(t *testing.T) {
	decode := func(body string, declared int64, v any) error {
		r := httptest.NewRequest(http.MethodPost, "/v2/policies/x/secrets", strings.NewReader(body))
		r.ContentLength = declared
		return decodeBodyV2(httptest.NewRecorder(), r, v)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req wire.FetchSecretsRequest
	if err := decode(`{}`, wire.MaxResponseBytes, &req); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*maxRequestPresize {
		t.Errorf("declared %d B over a 2 B body allocated %d B, want about %d", wire.MaxResponseBytes, got, maxRequestPresize)
	}

	names := make([]string, 20000) // ~160 KiB encoded, past the clamp
	for i := range names {
		names[i] = fmt.Sprintf("s%05d", i)
	}
	big, err := json.Marshal(wire.FetchSecretsRequest{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= maxRequestPresize {
		t.Fatalf("body of %d bytes does not pass the %d byte clamp", len(big), maxRequestPresize)
	}
	req = wire.FetchSecretsRequest{}
	if err := decode(string(big), int64(len(big)), &req); err != nil || !reflect.DeepEqual(req.Names, names) {
		t.Errorf("body past the clamp: %d names, %v; want %d", len(req.Names), err, len(names))
	}
}

// TestSecretsResponseDeclaresLength pins the framing of the all-secrets
// response: whatever its size it carries a Content-Length and is not
// chunked, so doRaw's sized read covers the large bodies too (net/http on
// its own declares a length only below 2 KiB). The typed client then
// decodes what arrived into exactly the stored secrets.
func TestSecretsResponseDeclaresLength(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "owner")
	mre := appBinary().Measure()
	for _, n := range []int{1, 128} {
		name := fmt.Sprintf("framed-%d", n)
		pol := genPolicy(name, 1, mre)
		for i := 1; i < n; i++ {
			pol.Secrets = append(pol.Secrets, policy.Secret{
				Name: fmt.Sprintf("s%03d", i), Type: policy.SecretExplicit, Value: strings.Repeat("v", 32),
			})
		}
		if err := cli.CreatePolicy(ctx, pol); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			s.server.URL()+wire.PathPrefix+"/policies/"+name+"/secrets", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cli.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v, body %s", name, resp.StatusCode, err, body)
		}
		if n == 128 && len(body) <= 2048 {
			t.Fatalf("%s: body of %d bytes does not reach net/http's chunking threshold", name, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a body of %d bytes",
				name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		got, err := cli.FetchSecrets(ctx, name, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := pol.SecretValues(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %d secrets, want %d: %v", name, len(got), len(want), got)
		}
	}
}

// TestRemoteErrorKeepsUnknownStatus pins the non-envelope fallback: an
// error body that is not the structured envelope (a proxy's page, a
// teapot) still reports the HTTP status and a bounded body excerpt, and
// matches no sentinel.
func TestRemoteErrorKeepsUnknownStatus(t *testing.T) {
	teapot := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, `{"error":"short and stout"}`+strings.Repeat(" padding", 100))
	}))
	defer teapot.Close()
	cli := NewClient(ClientOptions{BaseURL: teapot.URL})
	_, err := cli.ReadPolicy(context.Background(), "x")
	if err == nil || !strings.Contains(err.Error(), "418") || !strings.Contains(err.Error(), "short and stout") {
		t.Fatalf("unknown-status error dropped the code: %v", err)
	}
	if len(err.Error()) > 400 {
		t.Fatalf("body excerpt is unbounded: %d bytes", len(err.Error()))
	}
	// 404 from something that is not PALÆMON is not "policy not found".
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	_, err = NewClient(ClientOptions{BaseURL: notFound.URL}).ReadPolicy(context.Background(), "x")
	if err == nil || errors.Is(err, ErrPolicyNotFound) {
		t.Fatalf("plain-text 404 = %v, want an error matching no sentinel", err)
	}
}

// TestV2WatchDetectsRecreate pins the delete+recreate guard: Revision
// restarts at 1 on recreation, so a watcher armed with (rev, create_id)
// must wake even when the recreated policy lands on the watched revision
// number.
func TestV2WatchDetectsRecreate(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "recreate-watcher")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()

	if err := cli.CreatePolicy(ctx, testPolicy("rc-pol", mre)); err != nil {
		t.Fatal(err)
	}
	p, err := cli.ReadPolicy(ctx, "rc-pol")
	if err != nil {
		t.Fatal(err)
	}

	type watchOut struct {
		res *wire.WatchResponse
		err error
	}
	done := make(chan watchOut, 1)
	go func() {
		res, err := cli.WatchPolicy(ctx, "rc-pol", p.Revision, p.CreateID, 5*time.Second)
		done <- watchOut{res, err}
	}()
	waitForWatchers(t, s.inst, "rc-pol", 1)
	if err := cli.DeletePolicy(ctx, "rc-pol"); err != nil {
		t.Fatal(err)
	}
	// Recreate immediately: the new policy is back at Revision 1 — the
	// exact revision the watcher armed with.
	if err := cli.CreatePolicy(ctx, testPolicy("rc-pol", mre)); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("watch: %v", out.err)
		}
		// Depending on which write the watcher woke on it reports either
		// the deletion or the recreated version — but never "unchanged".
		if !out.res.Changed {
			t.Fatalf("recreate on the same revision was invisible: %+v", out.res)
		}
		if !out.res.Deleted && out.res.CreateID == p.CreateID {
			t.Fatalf("watch woke with the OLD CreateID: %+v", out.res)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("watch slept through delete+recreate on the same revision")
	}
}

// TestLocalWatchCancellation pins the cancel-vs-window distinction of
// Client.WatchPolicy: a watch whose CALLER context is cancelled must
// surface the error (not a Changed=false re-arm signal, which would
// busy-spin re-arm loops), while a window expiry still reads as
// Changed=false.
func TestLocalWatchCancellation(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "local-watcher")
	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()
	if err := cli.CreatePolicy(ctx, testPolicy("lw-pol", mre)); err != nil {
		t.Fatal(err)
	}

	// Window expiry: Changed=false, nil error.
	res, err := cli.WatchPolicy(ctx, "lw-pol", 1, 0, 100*time.Millisecond)
	if err != nil || res.Changed {
		t.Fatalf("window expiry = (%+v, %v), want (Changed=false, nil)", res, err)
	}

	// Caller cancellation: the error, promptly.
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := cli.WatchPolicy(cctx, "lw-pol", 1, 0, 30*time.Second)
		done <- err
	}()
	waitForWatchers(t, s.inst, "lw-pol", 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled watch = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled watch did not return")
	}
}
