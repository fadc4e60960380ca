package core

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"palaemon/internal/sgx"
	"palaemon/internal/wire"
)

// rawHTTPClient builds an HTTP client with (optionally) a client
// certificate, for sending requests the typed Client cannot produce —
// malformed bodies, missing certificates.
func rawHTTPClient(t *testing.T, s *stack, withCert bool) *http.Client {
	t.Helper()
	cfg := &tls.Config{MinVersion: tls.VersionTLS13, RootCAs: s.auth.Root().Pool()}
	if withCert {
		cert, _, err := NewClientCertificate("raw")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Certificates = []tls.Certificate{*cert}
	}
	return &http.Client{Transport: &http.Transport{TLSClientConfig: cfg}}
}

// rawDo sends one request and returns the status and body.
func rawDo(t *testing.T, c *http.Client, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestServerHandlerErrorPaths is the table-driven sweep of the REST error
// mapping: unauthenticated clients, malformed JSON, unknown policies.
func TestServerHandlerErrorPaths(t *testing.T) {
	s := newStack(t)
	authed := rawHTTPClient(t, s, true)
	bare := rawHTTPClient(t, s, false)

	mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()
	marshalPolicy := func(name string) string {
		raw, err := json.Marshal(testPolicy(name, mre))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	// A policy of authed's own, for errors past the creator check.
	if status, raw := rawDo(t, authed, "POST", s.server.URL()+"/v2/policies", marshalPolicy("owned")); status != http.StatusCreated {
		t.Fatalf("create owned: status %d, body %s", status, raw)
	}

	cases := []struct {
		name       string
		client     *http.Client
		method     string
		path       string
		body       string
		wantStatus int
	}{
		// Unauthenticated client ID: no certificate presented at all.
		{"create without cert", bare, "POST", "/v2/policies", `{"name":"x"}`, http.StatusForbidden},
		{"read without cert", bare, "GET", "/v2/policies/x", "", http.StatusForbidden},
		{"update without cert", bare, "PUT", "/v2/policies/x", `{"name":"x"}`, http.StatusForbidden},
		{"delete without cert", bare, "DELETE", "/v2/policies/x", "", http.StatusForbidden},
		{"secrets without cert", bare, "POST", "/v2/policies/x/secrets", `{}`, http.StatusForbidden},

		// Malformed JSON bodies.
		{"create bad json", authed, "POST", "/v2/policies", `{"name":`, http.StatusBadRequest},
		{"update bad json", authed, "PUT", "/v2/policies/x", `not-json`, http.StatusBadRequest},
		{"secrets bad json", authed, "POST", "/v2/policies/x/secrets", `]`, http.StatusBadRequest},
		{"attest bad json", authed, "POST", "/v2/attest", `{{`, http.StatusBadRequest},
		{"tags bad json", authed, "POST", "/v2/tags", `"`, http.StatusBadRequest},
		{"exit bad json", authed, "POST", "/v2/exit", `nope{`, http.StatusBadRequest},
		{"challenge bad json", authed, "POST", "/v2/challenge", `[`, http.StatusBadRequest},

		// Bytes after the one JSON value: the body is malformed as a whole.
		// A stream decoder stops at the first value, and these were served.
		{"secrets trailing garbage", authed, "POST", "/v2/policies/owned/secrets", `{}junk`, http.StatusBadRequest},
		{"secrets second value", authed, "POST", "/v2/policies/owned/secrets", `{"names":["api_token"]}{}`, http.StatusBadRequest},
		{"create two policies in one body", authed, "POST", "/v2/policies", marshalPolicy("twin-a") + marshalPolicy("twin-b"), http.StatusBadRequest},
		{"neither was created", authed, "GET", "/v2/policies/twin-a", "", http.StatusNotFound},
		{"secrets trailing whitespace is not garbage", authed, "POST", "/v2/policies/owned/secrets", "{}\n \t", http.StatusOK},

		// Unknown policy.
		{"read unknown policy", authed, "GET", "/v2/policies/no-such", "", http.StatusNotFound},
		{"update unknown policy", authed, "PUT", "/v2/policies/no-such", marshalPolicy("no-such"), http.StatusNotFound},
		{"delete unknown policy", authed, "DELETE", "/v2/policies/no-such", "", http.StatusNotFound},
		{"secrets unknown policy", authed, "POST", "/v2/policies/no-such/secrets", `{}`, http.StatusNotFound},

		// Unknown secret of a known policy: the caller's typo, not a server
		// fault (it used to answer internal / 500).
		{"secrets unknown name", authed, "POST", "/v2/policies/owned/secrets", `{"names":["api_tokne"]}`, http.StatusNotFound},

		// Name mismatch between path and body.
		{"update name mismatch", authed, "PUT", "/v2/policies/a", marshalPolicy("b"), http.StatusBadRequest},

		// Invalid policy content (validation errors map to 400).
		{"create invalid policy", authed, "POST", "/v2/policies", `{"name":""}`, http.StatusBadRequest},

		// Stale/unknown session token.
		{"push unknown token", authed, "POST", "/v2/tags", `{"token":"nope","tag":[0]}`, http.StatusUnauthorized},
		{"exit unknown token", authed, "POST", "/v2/exit", `{"token":"nope","tag":[0]}`, http.StatusUnauthorized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := rawDo(t, tc.client, tc.method, s.server.URL()+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", status, tc.wantStatus, raw)
			}
			if status >= 400 {
				decodeEnvelope(t, raw)
			}
		})
	}

	// Status alone cannot tell the unknown secret from the unknown policy.
	_, raw := rawDo(t, authed, "POST", s.server.URL()+"/v2/policies/owned/secrets", `{"names":["api_tokne"]}`)
	if e := decodeEnvelope(t, raw); e.Code != wire.CodeNotFound {
		t.Fatalf("unknown secret: code %q, want %q; body %s", e.Code, wire.CodeNotFound, raw)
	}
}

// TestServerExitedInstance proves every endpoint reports 503/ErrDraining
// once the instance has been shut down underneath a live server.
func TestServerExitedInstance(t *testing.T) {
	s := newStack(t)
	cli, _ := s.client(t, "owner")
	ctx := context.Background()

	bin := sgx.Binary{Name: "app", Code: []byte("v1")}
	if err := cli.CreatePolicy(ctx, testPolicy("pre-exit", bin.Measure())); err != nil {
		t.Fatal(err)
	}
	// Drain the instance; the HTTP server stays up.
	if err := s.inst.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if err := cli.CreatePolicy(ctx, testPolicy("post-exit", bin.Measure())); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after exit: %v", err)
	}
	if _, err := cli.ReadPolicy(ctx, "pre-exit"); !errors.Is(err, ErrDraining) {
		t.Fatalf("read after exit: %v", err)
	}
	if err := cli.UpdatePolicy(ctx, testPolicy("pre-exit", bin.Measure())); !errors.Is(err, ErrDraining) {
		t.Fatalf("update after exit: %v", err)
	}
	if err := cli.DeletePolicy(ctx, "pre-exit"); !errors.Is(err, ErrDraining) {
		t.Fatalf("delete after exit: %v", err)
	}
	if _, err := cli.FetchSecrets(ctx, "pre-exit", nil, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("secrets after exit: %v", err)
	}
	if err := cli.PushTag(ctx, "token", [32]byte{1}, nil); !errors.Is(err, ErrDraining) {
		// PushTag on a drained instance must refuse before the token check.
		t.Fatalf("push after exit: %v", err)
	}
}
