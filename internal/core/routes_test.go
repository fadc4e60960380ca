package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"palaemon/internal/sgx"
	"palaemon/internal/wire"
)

// TestRouteTableShape pins the properties a reviewer reads off the table:
// which rows skip the concurrency gate, which exist only in a fleet, and
// that the pattern strings the benchmark matches as `route` labels are
// still there byte for byte.
func TestRouteTableShape(t *testing.T) {
	ungated := map[string]bool{"/v2/policies/{name}/watch": true, "/v2/repl/tail": true}
	fleetOnly := map[string]bool{"/v2/fleet": true, "/v2/repl/state": true, "/v2/repl/tail": true}
	seen := map[string]bool{}
	for _, rt := range (&Server{}).routes() {
		if seen[rt.pattern] {
			t.Errorf("pattern %q registered twice", rt.pattern)
		}
		seen[rt.pattern] = true
		if len(rt.methods) == 0 {
			t.Errorf("%s: no methods", rt.pattern)
		}
		if rt.ungated != ungated[rt.pattern] {
			t.Errorf("%s: ungated = %v, want %v", rt.pattern, rt.ungated, ungated[rt.pattern])
		}
		if rt.fleetOnly != fleetOnly[rt.pattern] {
			t.Errorf("%s: fleetOnly = %v, want %v", rt.pattern, rt.fleetOnly, fleetOnly[rt.pattern])
		}
	}
	for _, label := range []string{
		"/v2/policies/{name}/secrets", "/v2/attest", "/v2/tags", "/v2/exit", "/v2/policies/{name}",
		"/v2/policies/{name}/watch", "/v2/fleet", "/v2/repl/state", "/v2/repl/tail",
	} {
		if !seen[label] {
			t.Errorf("route %q is gone from the table", label)
		}
	}
}

// TestWireDecodesThroughOneFunction keeps core at one decode idiom: a file
// that speaks HTTP (client or server side) hands message bytes to
// wire.Unmarshal and never to encoding/json's decoders itself. What is
// left calling json.Unmarshal are the files that read stored records back
// from kvdb, and they do not import net/http.
func TestWireDecodesThroughOneFunction(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(src, []byte(`"net/http"`)) {
			continue
		}
		for _, call := range []string{"json.Unmarshal(", "json.NewDecoder("} {
			if bytes.Contains(src, []byte(call)) {
				t.Errorf("%s calls %s…): decode wire messages with wire.Unmarshal", file, call)
			}
		}
	}
}

// TestUnversionedPathsCannotBypass is the regression for the hole the
// unversioned routes left open: they were mounted without admission and
// without the shard-ownership check, so a flooder could skip the rate
// limit and a fleet shard would create policies the ring routes elsewhere.
func TestUnversionedPathsCannotBypass(t *testing.T) {
	t.Run("admission", func(t *testing.T) {
		s := newStackWith(t, func(o *ServerOptions) {
			o.Limits = &AdmissionLimits{TenantRate: 0.001, TenantBurst: 1}
		})
		tenant := rawHTTPClient(t, s, true)
		// Drain the tenant's one-token bucket.
		if status, raw := rawDo(t, tenant, "GET", s.server.URL()+"/v2/policies", ""); status != http.StatusOK {
			t.Fatalf("first request: status %d, body %s", status, raw)
		}
		status, raw := rawDo(t, tenant, "POST", s.server.URL()+"/policies/x/secrets", `{}`)
		if e := decodeEnvelope(t, raw); status != http.StatusTooManyRequests || e.Code != wire.CodeResourceExhausted {
			t.Fatalf("unversioned path past a drained bucket: status %d, body %s", status, raw)
		}
	})

	t.Run("ownership", func(t *testing.T) {
		// A shard that owns nothing: every policy-addressed request must be
		// turned away before it reaches the instance.
		s := newStackWith(t, func(o *ServerOptions) {
			o.Fleet = &FleetHooks{
				Doc:         func() *wire.FleetDoc { return nil },
				Owns:        func(string) (bool, string) { return false, "https://owner.invalid" },
				ReplAllowed: func(ClientID) bool { return false },
			}
		})
		mre := sgx.Binary{Name: "app", Code: []byte("v1")}.Measure()
		body, err := json.Marshal(testPolicy("x", mre))
		if err != nil {
			t.Fatal(err)
		}
		before := s.inst.DBSeq()
		status, raw := rawDo(t, rawHTTPClient(t, s, true), "POST", s.server.URL()+"/policies", string(body))
		if e := decodeEnvelope(t, raw); status != http.StatusNotFound || e.Code != wire.CodeNotFound {
			t.Fatalf("unversioned create on a non-owner shard: status %d, body %s", status, raw)
		}
		if after := s.inst.DBSeq(); after != before {
			t.Fatalf("DB sequence moved %d -> %d: the policy was created on a shard that does not own it", before, after)
		}
	})
}
