// Package stress is the concurrency harness for PALÆMON: it boots a fully
// attested deployment (platform, IAS, CA, instance, REST/TLS server) and
// drives N concurrent stakeholders through the hot paths of §IV — policy
// CRUD, secret retrieval, application attestation, and rollback-protection
// tag updates — with per-operation latency and aggregate throughput
// accounting.
//
// Its consumers are the -race concurrency regression tests (many
// stakeholders against one instance must be linearizable and error-free),
// the full-stack concurrent-stakeholder benchmarks (DESIGN.md §5), and the
// correctness scenarios: overload and slow-loris (§10), Byzantine
// stakeholders (§13), and the kill-a-shard failover drill behind
// `palaemonreport fleet` (§14).
package stress

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"sync"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/board"
	"palaemon/internal/ca"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/ias"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
)

// Options configures the deployment under stress.
type Options struct {
	// DataDir stores the instance database (required).
	DataDir string
	// Evaluator reaches policy boards; nil runs board-less policies.
	Evaluator *board.Evaluator
	// Limits enables admission control in front of every server route
	// (per-tenant token buckets + concurrency gate) — the overload
	// scenarios set this; nil serves without limits.
	Limits *core.AdmissionLimits
	// ReadTimeout overrides the server's request read timeout (slow-loris
	// reaping); zero keeps the server default, negative disables.
	ReadTimeout time.Duration
	// Obs installs an observability bundle (request metrics, structured
	// logs, optional audit chain) on the instance and server. Nil serves
	// fully uninstrumented — the baseline BenchmarkObsServing compares
	// against. The overload scenarios require it:
	// their latency figures come from the server-side histograms.
	Obs *obs.Obs
}

// Harness is a booted deployment plus the artefacts stakeholders need.
type Harness struct {
	// Platform hosts every enclave of the run.
	Platform *sgx.Platform
	// IAS verifies quotes for the explicit attestation path.
	IAS *ias.Service
	// Authority is the PALÆMON CA the instance attested to.
	Authority *ca.Authority
	// Instance is the TMS under stress.
	Instance *core.Instance
	// Server is the REST/TLS endpoint.
	Server *core.Server
	// Obs is the observability bundle shared by instance and server; nil
	// when the harness runs uninstrumented.
	Obs *obs.Obs

	// AppBinary is the workload binary every stress policy permits.
	AppBinary sgx.Binary
}

// New boots the deployment: fast platform (no counter rate limit — the
// stress harness measures PALÆMON, not the 50 ms SGX counter throttle),
// IAS, instance with the selected WAL mode, CA, and server.
func New(opts Options) (*Harness, error) {
	if opts.DataDir == "" {
		return nil, errors.New("stress: DataDir is required")
	}
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Model: model})
	if err != nil {
		return nil, err
	}
	iasSvc, err := ias.New(simclock.Wall{}, time.Millisecond)
	if err != nil {
		return nil, err
	}
	iasSvc.RegisterPlatform(p.ID(), p.QuotingKey())

	inst, err := core.Open(core.Options{
		Platform:  p,
		DataDir:   opts.DataDir,
		Evaluator: opts.Evaluator,
		Obs:       opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	auth, err := ca.New(p, ca.Config{
		TrustedMREs:  []sgx.Measurement{inst.MRE()},
		CertValidity: time.Hour,
	})
	if err != nil {
		inst.Shutdown(context.Background())
		return nil, err
	}
	server, err := core.Serve(inst, core.ServerOptions{
		Authority:   auth,
		IAS:         iasSvc,
		Limits:      opts.Limits,
		ReadTimeout: opts.ReadTimeout,
		Obs:         opts.Obs,
	})
	if err != nil {
		inst.Shutdown(context.Background())
		auth.Close()
		return nil, err
	}
	return &Harness{
		Platform:  p,
		IAS:       iasSvc,
		Authority: auth,
		Instance:  inst,
		Server:    server,
		Obs:       opts.Obs,
		AppBinary: sgx.Binary{Name: "stress-app", Code: []byte("stress-workload-v1")},
	}, nil
}

// Close tears the deployment down (server first, then the Fig 6 drain).
func (h *Harness) Close() error {
	if err := h.Server.Close(); err != nil {
		return err
	}
	if err := h.Instance.Shutdown(context.Background()); err != nil {
		return err
	}
	h.Authority.Close()
	return nil
}

// Stakeholder is one concurrent client identity: its own certificate
// (pinned by the instance) and its own pooled HTTPS client.
type Stakeholder struct {
	// Name labels the stakeholder; its policy is named "stress-<Name>".
	Name string
	// ID is the certificate fingerprint the instance pins.
	ID core.ClientID
	// Client is the stakeholder's pooled TLS client.
	Client *core.Client
	// Cert is the stakeholder's certificate, so scenarios can mint extra
	// clients sharing the identity (e.g. with a retry policy).
	Cert *tls.Certificate
}

// PolicyName returns the stakeholder's policy name.
func (s *Stakeholder) PolicyName() string { return "stress-" + s.Name }

// NewStakeholder mints a certificate and a pooled client for one identity.
func (h *Harness) NewStakeholder(name string) (*Stakeholder, error) {
	cert, id, err := core.NewClientCertificate(name)
	if err != nil {
		return nil, err
	}
	cli := core.NewClient(core.ClientOptions{
		BaseURL:     h.Server.URL(),
		Roots:       h.Authority.Root().Pool(),
		Certificate: cert,
		Timeout:     30 * time.Second,
	})
	return &Stakeholder{Name: name, ID: id, Client: cli, Cert: cert}, nil
}

// policyFor builds the stress policy for a stakeholder: one service
// permitting the shared app binary, one random secret.
func (h *Harness) policyFor(s *Stakeholder, iteration int) *policy.Policy {
	return &policy.Policy{
		Name: s.PolicyName(),
		Services: []policy.Service{{
			Name:        "app",
			Command:     fmt.Sprintf("serve --iter %d --token $$api_token", iteration),
			MREnclaves:  []sgx.Measurement{h.AppBinary.Measure()},
			Environment: map[string]string{"TOKEN": "$$api_token"},
		}},
		Secrets: []policy.Secret{{Name: "api_token", Type: policy.SecretRandom}},
	}
}

// WorkloadOptions shapes one Run.
type WorkloadOptions struct {
	// Stakeholders is the concurrency (default 8).
	Stakeholders int
	// Iterations is the number of hot-path loops per stakeholder
	// (default 10). Each iteration performs one read, one secret fetch,
	// one update, one attestation, TagPushes pushes, and one exit.
	Iterations int
	// TagPushes is the number of tag updates per iteration (default 3).
	TagPushes int
	// SkipCRUD drops the read/update portion, leaving a pure
	// attest/tag-push workload (the Fig 11 tag-update hot path).
	SkipCRUD bool
}

func (o *WorkloadOptions) defaults() {
	if o.Stakeholders <= 0 {
		o.Stakeholders = 8
	}
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.TagPushes <= 0 {
		o.TagPushes = 3
	}
}

// Run drives the workload: every stakeholder runs in its own goroutine
// against the shared instance, creating its policy, looping the hot paths,
// and deleting the policy on the way out. The returned report aggregates
// latency percentiles per operation kind; any operation error is counted
// and the first one is returned.
func (h *Harness) Run(ctx context.Context, opts WorkloadOptions) (Report, error) {
	opts.defaults()
	rec := &recorder{}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	start := time.Now()
	statsBefore := h.Instance.CacheStats()
	for w := 0; w < opts.Stakeholders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail(h.runStakeholder(ctx, fmt.Sprintf("s%d", w), opts, rec.newSink()))
		}(w)
	}
	wg.Wait()
	rep := rec.report(opts.Stakeholders, time.Since(start))
	rep.Cache = h.Instance.CacheStats().Since(statsBefore)
	rep.Requests = h.requestSummary()
	return rep, firstErr
}

// runStakeholder is one stakeholder's full lifecycle.
func (h *Harness) runStakeholder(ctx context.Context, name string, opts WorkloadOptions, sink *sink) error {
	s, err := h.NewStakeholder(name)
	if err != nil {
		return fmt.Errorf("stress: stakeholder %s: %w", name, err)
	}
	defer s.Client.CloseIdle()

	// The stakeholder's application enclave, attested each iteration.
	enclave, err := h.Platform.Launch(h.AppBinary, sgx.LaunchOptions{})
	if err != nil {
		return fmt.Errorf("stress: launch app enclave: %w", err)
	}
	defer enclave.Destroy()

	if err := sink.observe("create", func() error {
		return s.Client.CreatePolicy(ctx, h.policyFor(s, 0))
	}); err != nil {
		return fmt.Errorf("stress: %s create: %w", name, err)
	}

	var lastErr error
	for iter := 1; iter <= opts.Iterations; iter++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !opts.SkipCRUD {
			if err := sink.observe("read", func() error {
				_, err := s.Client.ReadPolicy(ctx, s.PolicyName())
				return err
			}); err != nil {
				lastErr = err
			}
			if err := sink.observe("fetch-secrets", func() error {
				_, err := s.Client.FetchSecrets(ctx, s.PolicyName(), nil, nil)
				return err
			}); err != nil {
				lastErr = err
			}
			if err := sink.observe("update", func() error {
				return s.Client.UpdatePolicy(ctx, h.policyFor(s, iter))
			}); err != nil {
				lastErr = err
			}
		}

		// Attestation opens a tag-push session (fresh session key per
		// execution, as a real runtime would).
		signer, err := cryptoutil.NewSigner()
		if err != nil {
			return err
		}
		ev := attest.NewEvidence(enclave, s.PolicyName(), "app", signer.Public)
		var cfg *core.AppConfig
		if err := sink.observe("attest", func() error {
			var err error
			cfg, err = s.Client.Attest(ctx, ev, h.Platform.QuotingKey(), nil)
			return err
		}); err != nil {
			lastErr = err
			continue
		}
		tag := fspf.Tag{byte(iter)}
		for push := 0; push < opts.TagPushes; push++ {
			tag[1] = byte(push)
			if err := sink.observe("push-tag", func() error {
				return s.Client.PushTag(ctx, cfg.SessionToken, tag, nil)
			}); err != nil {
				lastErr = err
			}
		}
		if err := sink.observe("exit", func() error {
			return s.Client.NotifyExit(ctx, cfg.SessionToken, tag)
		}); err != nil {
			lastErr = err
		}
	}

	if err := sink.observe("delete", func() error {
		return s.Client.DeletePolicy(ctx, s.PolicyName())
	}); err != nil {
		lastErr = err
	}
	if lastErr != nil {
		return fmt.Errorf("stress: %s: %w", name, lastErr)
	}
	return nil
}

// secretsPolicy builds a policy releasing many random secrets through a
// substitution-heavy command, environment and injection file.
func (h *Harness) secretsPolicy(name string, secrets int) *policy.Policy {
	p := &policy.Policy{
		Name: name,
		Services: []policy.Service{{
			Name:        "app",
			Command:     "serve --token $$secret_00 --backup $$secret_01",
			MREnclaves:  []sgx.Measurement{h.AppBinary.Measure()},
			Environment: map[string]string{"TOKEN": "$$secret_00"},
			InjectionFiles: []policy.InjectionFile{{
				Path:     "/etc/app/conf",
				Template: "token=$$secret_00\nbackup=$$secret_01\n",
			}},
		}},
	}
	for s := 0; s < secrets; s++ {
		p.Secrets = append(p.Secrets, policy.Secret{
			Name: fmt.Sprintf("secret_%02d", s),
			Type: policy.SecretRandom,
		})
	}
	return p
}

// BenchPolicy builds a small attestable policy for benchmarks and the
// figures harness: one service bound to AppBinary, two random secrets.
func (h *Harness) BenchPolicy(name string) *policy.Policy {
	return h.secretsPolicy(name, 2)
}
