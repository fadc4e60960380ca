package core

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/ca"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/ias"
	"palaemon/internal/obs"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
)

// newObsStack boots a deployment with the observability bundle installed
// on both instance and server: logs into buf, metrics into the bundle's
// registry, audit into <tempdir>/audit.log.
func newObsStack(t *testing.T, buf *bytes.Buffer) (*stack, *obs.Obs) {
	t.Helper()
	bundle := obs.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	audit, err := obs.OpenAudit(filepath.Join(t.TempDir(), "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	bundle.Audit = audit
	t.Cleanup(func() { audit.Close() })

	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	iasSvc, err := ias.New(simclock.Wall{}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	iasSvc.RegisterPlatform(p.ID(), p.QuotingKey())
	inst, err := Open(Options{Platform: p, DataDir: t.TempDir(), Obs: bundle})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := ca.New(p, ca.Config{TrustedMREs: []sgx.Measurement{inst.MRE()}, CertValidity: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	server, err := Serve(inst, ServerOptions{Authority: auth, IAS: iasSvc, Obs: bundle})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Close()
		inst.Shutdown(context.Background())
		auth.Close()
	})
	return &stack{platform: p, iasSvc: iasSvc, auth: auth, inst: inst, server: server}, bundle
}

// testLogAttr pulls one key=value attribute out of a slog text line.
func testLogAttr(line, key string) string {
	idx := strings.Index(line, " "+key+"=")
	if idx < 0 {
		return ""
	}
	rest := line[idx+len(key)+2:]
	if strings.HasPrefix(rest, `"`) {
		if end := strings.Index(rest[1:], `"`); end >= 0 {
			return rest[1 : 1+end]
		}
		return ""
	}
	if end := strings.IndexByte(rest, ' '); end >= 0 {
		return rest[:end]
	}
	return rest
}

// findLogLine returns the first line whose msg attribute equals msg and
// which carries every given attribute value.
func findLogLine(buf *bytes.Buffer, msg string, attrs map[string]string) (string, bool) {
next:
	for _, line := range strings.Split(buf.String(), "\n") {
		if testLogAttr(line, "msg") != msg {
			continue
		}
		for k, v := range attrs {
			if testLogAttr(line, k) != v {
				continue next
			}
		}
		return line, true
	}
	return "", false
}

// TestObsRequestIDPropagation drives a v2 policy mutation and an
// attestation over HTTPS and checks the canonical request line and the
// core-op line share one generated request ID — the middleware mints it,
// the context carries it through the instance op.
func TestObsRequestIDPropagation(t *testing.T) {
	var buf bytes.Buffer
	s, bundle := newObsStack(t, &buf)
	ctx := context.Background()
	cli, id := s.client(t, "obs-alice")

	bin := sgx.Binary{Name: "app", Code: []byte("obs v1")}
	pol := testPolicy("obs-pol", bin.Measure())
	if err := cli.CreatePolicy(ctx, pol); err != nil {
		t.Fatalf("CreatePolicy: %v", err)
	}

	mutLine, ok := findLogLine(&buf, "policy.create", map[string]string{"policy": "obs-pol", "outcome": "ok"})
	if !ok {
		t.Fatalf("no policy.create log line:\n%s", buf.String())
	}
	reqID := testLogAttr(mutLine, "req")
	if reqID == "" {
		t.Fatalf("policy.create line has no request ID: %s", mutLine)
	}
	reqLine, ok := findLogLine(&buf, "request", map[string]string{"req": reqID})
	if !ok {
		t.Fatalf("no canonical request line with req=%s:\n%s", reqID, buf.String())
	}
	if route := testLogAttr(reqLine, "route"); route != "/v2/policies" {
		t.Fatalf("request line route = %q, want /v2/policies", route)
	}
	if tenant := testLogAttr(reqLine, "tenant"); tenant != id.Short() {
		t.Fatalf("request line tenant = %q, want %q", tenant, id.Short())
	}
	if testLogAttr(mutLine, "tenant") != id.Short() {
		t.Fatalf("mutation line tenant mismatch: %s", mutLine)
	}

	// Attestation over HTTPS: same propagation through AttestApplication.
	enclave, err := s.platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Destroy()
	signer, err := cryptoutil.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	ev := attest.NewEvidence(enclave, "obs-pol", "app", signer.Public)
	if _, err := cli.Attest(ctx, ev, s.platform.QuotingKey(), nil); err != nil {
		t.Fatalf("Attest: %v", err)
	}
	attLine, ok := findLogLine(&buf, "attest", map[string]string{"policy": "obs-pol", "outcome": "ok"})
	if !ok {
		t.Fatalf("no attest log line:\n%s", buf.String())
	}
	attReq := testLogAttr(attLine, "req")
	if attReq == "" || attReq == reqID {
		t.Fatalf("attest request ID %q not distinct and non-empty (create was %q)", attReq, reqID)
	}
	if _, ok := findLogLine(&buf, "request", map[string]string{"req": attReq, "route": "/v2/attest"}); !ok {
		t.Fatalf("no request line for the attest call with req=%s:\n%s", attReq, buf.String())
	}

	// The RED counters saw the same traffic.
	if n := bundle.Metrics.Counter("palaemon_requests_total",
		obs.L("route", "/v2/attest"), obs.L("tenant", id.Short())).Value(); n == 0 {
		t.Fatal("palaemon_requests_total{route=/v2/attest} not incremented")
	}
	if n := bundle.Metrics.Histogram("palaemon_request_seconds",
		obs.L("route", "/v2/policies"), obs.L("tenant", id.Short())).Count(); n == 0 {
		t.Fatal("palaemon_request_seconds{route=/v2/policies} has no samples")
	}
}

// TestObsLiveAuditChain runs mutations, a denial and an attestation
// against a live server, then verifies the audit chain replays clean, the
// head anchor matches, and a flipped byte is detected.
func TestObsLiveAuditChain(t *testing.T) {
	var buf bytes.Buffer
	s, bundle := newObsStack(t, &buf)
	ctx := context.Background()
	cli, _ := s.client(t, "obs-auditor")

	bin := sgx.Binary{Name: "app", Code: []byte("audit v1")}
	pol := testPolicy("audit-pol", bin.Measure())
	if err := cli.CreatePolicy(ctx, pol); err != nil {
		t.Fatalf("CreatePolicy: %v", err)
	}
	// A foreign identity's mutation is denied — and audited as such.
	mallory, _ := s.client(t, "obs-mallory")
	stolen := testPolicy("audit-pol", bin.Measure())
	stolen.Services[0].Command = "serve --stolen"
	if err := mallory.UpdatePolicy(ctx, stolen); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("foreign update: %v", err)
	}
	enclave, err := s.platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Destroy()
	signer, err := cryptoutil.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Attest(ctx, attest.NewEvidence(enclave, "audit-pol", "app", signer.Public), s.platform.QuotingKey(), nil); err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if err := cli.DeletePolicy(ctx, "audit-pol"); err != nil {
		t.Fatalf("DeletePolicy: %v", err)
	}

	seq, head := bundle.Audit.Head()
	if seq < 4 {
		t.Fatalf("audit chain has %d records, want at least create+denied-update+attest+delete", seq)
	}
	path := bundle.Audit.Path()
	gotSeq, gotHead, err := obs.VerifyAuditFile(path)
	if err != nil {
		t.Fatalf("live audit chain does not verify: %v", err)
	}
	if gotSeq != seq || gotHead != head {
		t.Fatalf("verifier disagrees with live head: %d/%x vs %d/%x", gotSeq, gotHead, seq, head)
	}
	if err := obs.CheckAudit(path, seq, head); err != nil {
		t.Fatalf("CheckAudit against live anchor: %v", err)
	}

	// The denied update appears as an audit record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"policy.update"`)) || !bytes.Contains(raw, []byte(`"denied"`)) {
		t.Fatalf("audit log missing the denied update record:\n%s", raw)
	}

	// Flip one byte in the middle of the file: verification must fail.
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 0x01
	tpath := filepath.Join(t.TempDir(), "tampered.log")
	if err := os.WriteFile(tpath, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.VerifyAuditFile(tpath); err == nil {
		t.Fatal("tampered audit chain verified")
	}
}

// TestClientIDFromEdgeOrCertificate: behind the middleware the handlers
// take the identity the edge hashed (and only that: the certificate is not
// looked at again); without a middleware they hash the certificate
// themselves, and both agree on what "no certificate" is.
func TestClientIDFromEdgeOrCertificate(t *testing.T) {
	cert, want, err := NewClientCertificate("edge")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(cert.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	withCert := httptest.NewRequest("GET", "/v2/policies", nil)
	withCert.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{leaf}}
	bare := httptest.NewRequest("GET", "/v2/policies", nil)

	if id, ok := clientID(withCert); !ok || id != want {
		t.Fatalf("no middleware, certificate: %x %v, want %x", id, ok, want)
	}
	if _, ok := clientID(bare); ok {
		t.Fatal("no middleware, no certificate: an identity appeared")
	}

	edge := func(r *http.Request, rq *obs.Request) *http.Request {
		return r.WithContext(obs.WithRequest(r.Context(), rq))
	}
	if id, ok := clientID(edge(bare, &obs.Request{Peer: want, HasPeer: true})); !ok || id != want {
		t.Fatalf("middleware, identity carried: %x %v, want %x", id, ok, want)
	}
	if _, ok := clientID(edge(withCert, &obs.Request{})); ok {
		t.Fatal("middleware found no certificate, the handler hashed one anyway")
	}
}
