package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/ca"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/ias"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
	"palaemon/internal/simnet"
)

// stack is a full deployment: platform, IAS, CA, instance, HTTPS server.
type stack struct {
	platform *sgx.Platform
	iasSvc   *ias.Service
	auth     *ca.Authority
	inst     *Instance
	server   *Server
}

func newStack(t *testing.T) *stack { return newStackWith(t, nil) }

// newStackWith is newStack with the server options adjusted by tune
// (admission limits, fleet hooks).
func newStackWith(t *testing.T, tune func(*ServerOptions)) *stack {
	t.Helper()
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Model: model}) // wall clock: real HTTP
	if err != nil {
		t.Fatal(err)
	}
	iasSvc, err := ias.New(simclock.Wall{}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	iasSvc.RegisterPlatform(p.ID(), p.QuotingKey())

	inst, err := Open(Options{Platform: p, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := ca.New(p, ca.Config{
		TrustedMREs:  []sgx.Measurement{inst.MRE()},
		CertValidity: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := ServerOptions{Authority: auth, IAS: iasSvc}
	if tune != nil {
		tune(&opts)
	}
	server, err := Serve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Close()
		inst.Shutdown(context.Background())
		auth.Close()
	})
	return &stack{platform: p, iasSvc: iasSvc, auth: auth, inst: inst, server: server}
}

func (s *stack) client(t *testing.T, name string) (*Client, ClientID) {
	t.Helper()
	cert, id, err := NewClientCertificate(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(ClientOptions{
		BaseURL:     s.server.URL(),
		Roots:       s.auth.Root().Pool(),
		Certificate: cert,
	}), id
}

func TestHTTPPolicyCRUD(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "alice")

	bin := sgx.Binary{Name: "app", Code: []byte("v1")}
	pol := testPolicy("http-pol", bin.Measure())
	if err := cli.CreatePolicy(ctx, pol); err != nil {
		t.Fatalf("CreatePolicy: %v", err)
	}
	got, err := cli.ReadPolicy(ctx, "http-pol")
	if err != nil {
		t.Fatalf("ReadPolicy: %v", err)
	}
	if got.SecretValues()["api_token"] == "" {
		t.Fatal("secret missing over HTTP")
	}

	// A different client certificate is rejected with the typed error.
	other, _ := s.client(t, "mallory")
	if _, err := other.ReadPolicy(ctx, "http-pol"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("foreign read over HTTP: %v", err)
	}

	// Secrets endpoint.
	secrets, err := cli.FetchSecrets(ctx, "http-pol", []string{"api_token"}, nil)
	if err != nil || secrets["api_token"] == "" {
		t.Fatalf("FetchSecrets: %v, %v", secrets, err)
	}

	// Update and delete round-trip.
	got.Services[0].Command = "serve --updated"
	if err := cli.UpdatePolicy(ctx, got); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	if err := cli.DeletePolicy(ctx, "http-pol"); err != nil {
		t.Fatalf("DeletePolicy: %v", err)
	}
	if _, err := cli.ReadPolicy(ctx, "http-pol"); !errors.Is(err, ErrPolicyNotFound) {
		t.Fatalf("read deleted: %v", err)
	}
}

func TestHTTPRequiresClientCert(t *testing.T) {
	s := newStack(t)
	bare := NewClient(ClientOptions{BaseURL: s.server.URL(), Roots: s.auth.Root().Pool()})
	err := bare.CreatePolicy(context.Background(), testPolicy("x", sgx.Binary{Code: []byte("b")}.Measure()))
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("create without client cert: %v", err)
	}
}

func TestHTTPAttestAndTagFlow(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, _ := s.client(t, "owner")

	bin := sgx.Binary{Name: "app", Code: []byte("shielded-app")}
	if err := cli.CreatePolicy(ctx, testPolicy("flow", bin.Measure())); err != nil {
		t.Fatal(err)
	}
	enclave, err := s.platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Destroy()
	session := cryptoutil.MustNewSigner()
	ev := attest.NewEvidence(enclave, "flow", "app", session.Public)
	cfg, err := cli.Attest(ctx, ev, s.platform.QuotingKey(), nil)
	if err != nil {
		t.Fatalf("Attest over HTTP: %v", err)
	}
	if cfg.SessionToken == "" {
		t.Fatal("no session token")
	}
	tag := fspf.Tag{7}
	if err := cli.PushTag(ctx, cfg.SessionToken, tag, nil); err != nil {
		t.Fatalf("PushTag: %v", err)
	}
	got, err := s.inst.ExpectedTag("flow", "app")
	if err != nil || got != tag {
		t.Fatalf("ExpectedTag = %v, %v", got, err)
	}
	if err := cli.NotifyExit(ctx, cfg.SessionToken, tag); err != nil {
		t.Fatalf("NotifyExit: %v", err)
	}
	if err := cli.PushTag(ctx, cfg.SessionToken, tag, nil); err == nil {
		t.Fatal("push after exit accepted")
	}
}

func TestTLSAttestationPath(t *testing.T) {
	// Clients that trust the PALÆMON CA attest the instance implicitly by
	// the TLS handshake: a client pinning the CA root connects fine.
	s := newStack(t)
	cli, _ := s.client(t, "tls-client")
	if _, err := cli.Attestation(context.Background()); err != nil {
		t.Fatalf("TLS-attested request: %v", err)
	}
}

func TestExplicitAttestationPath(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	// Client does NOT trust the CA (Roots nil → InsecureSkipVerify), and
	// instead verifies the IAS report + MRE + challenge (§IV-B).
	cli := NewClient(ClientOptions{BaseURL: s.server.URL()})
	err := cli.VerifyInstance(ctx, s.iasSvc.PublicKey(), []string{s.inst.MRE().String()})
	if err != nil {
		t.Fatalf("VerifyInstance: %v", err)
	}
	// Wrong expected MRE set must fail.
	err = cli.VerifyInstance(ctx, s.iasSvc.PublicKey(), []string{"deadbeef"})
	if err == nil {
		t.Fatal("VerifyInstance accepted wrong MRE")
	}
	// Wrong IAS key must fail.
	otherIAS, err2 := ias.New(simclock.Wall{}, 0)
	if err2 != nil {
		t.Fatal(err2)
	}
	err = cli.VerifyInstance(ctx, otherIAS.PublicKey(), []string{s.inst.MRE().String()})
	if err == nil {
		t.Fatal("VerifyInstance accepted wrong IAS key")
	}
}

func TestCARejectsModifiedPalaemon(t *testing.T) {
	// A provider running modified PALÆMON code cannot obtain a CA
	// certificate: Serve fails (§III-B).
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	genuine := DefaultBinary()
	auth, err := ca.New(p, ca.Config{TrustedMREs: []sgx.Measurement{genuine.Measure()}})
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()

	evil := sgx.Binary{Name: "palaemon", Code: []byte("palaemon-with-backdoor")}
	inst, err := Open(Options{Platform: p, DataDir: t.TempDir(), Binary: evil})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Shutdown(context.Background())
	if _, err := Serve(inst, ServerOptions{Authority: auth}); !errors.Is(err, ca.ErrMRENotTrusted) {
		t.Fatalf("modified PALÆMON obtained a certificate: %v", err)
	}
}

func TestClientLatencyProfileSleeps(t *testing.T) {
	s := newStack(t)
	cert, _, err := NewClientCertificate("geo")
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual()
	cli := NewClient(ClientOptions{
		BaseURL:     s.server.URL(),
		Roots:       s.auth.Root().Pool(),
		Certificate: cert,
		Profile:     simnet.KM7000,
		Clock:       clock,
	})
	start := clock.Now()
	if _, err := cli.Attestation(context.Background()); err != nil {
		t.Fatal(err)
	}
	if clock.Since(start) < simnet.KM7000.RTT {
		t.Fatalf("virtual clock advanced %v, want >= one RTT %v", clock.Since(start), simnet.KM7000.RTT)
	}
	// Tracker mode: charge instead of sleeping.
	var tr simclock.Tracker
	before := clock.Now()
	if _, err := cli.FetchSecrets(context.Background(), "none", nil, &tr); err == nil {
		t.Fatal("fetch of missing policy succeeded")
	}
	if tr.Total() < simnet.KM7000.RTT {
		t.Fatalf("tracker charged %v", tr.Total())
	}
	if clock.Since(before) != 0 {
		t.Fatal("tracker mode slept anyway")
	}
}
