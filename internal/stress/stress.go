// Package stress is the concurrency harness for PALÆMON: it boots a fully
// attested deployment (platform, IAS, CA, instance, REST/TLS server) and
// drives N concurrent stakeholders through the hot paths of §IV — policy
// CRUD, secret retrieval, application attestation, and rollback-protection
// tag updates — with per-operation latency and aggregate throughput
// accounting.
//
// It serves three consumers: the -race concurrency regression tests (many
// stakeholders against one instance must be linearizable and error-free),
// the full-stack concurrent-stakeholder benchmarks (DESIGN.md §5), and the read-path
// cache ablation (RunReadHeavy: repeated attestation and secret fetching
// with the decode-once policy cache on versus off, DESIGN.md §8).
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
	"palaemon/internal/simnet"
)

// Options configures the deployment under stress.
type Options struct {
	// DataDir stores the instance database (required).
	DataDir string
	// DisablePolicyCache turns the instance's decode-once policy cache
	// off — the read-path ablation baseline (DESIGN.md §8).
	DisablePolicyCache bool
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
	// fully uninstrumented — the ablation baseline the obs-overhead
	// experiment compares against. The overload scenarios require it:
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
		Platform:           p,
		DataDir:            opts.DataDir,
		Evaluator:          opts.Evaluator,
		DisablePolicyCache: opts.DisablePolicyCache,
		Obs:                opts.Obs,
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
	// clients sharing the identity (e.g. at a modelled WAN distance).
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

// StakeholderAt mints a client sharing s's certificate identity at the
// given modelled network distance (charged to trackers by the scenarios,
// so nothing actually sleeps).
func (h *Harness) StakeholderAt(s *Stakeholder, profile simnet.Profile) *core.Client {
	return core.NewClient(core.ClientOptions{
		BaseURL:     h.Server.URL(),
		Roots:       h.Authority.Root().Pool(),
		Certificate: s.Cert,
		Profile:     profile,
		Timeout:     30 * time.Second,
	})
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

// --- Read-heavy scenario -----------------------------------------------------

// ReadHeavyOptions shapes one RunReadHeavy: N stakeholders re-attesting
// and fetching secrets against M shared policies while a background
// updater rotates policy content — the Fig 8 / Fig 12 hot-loop mix the
// decode-once policy cache targets (DESIGN.md §8).
type ReadHeavyOptions struct {
	// Stakeholders is the reader concurrency (default 8). All readers
	// share one client identity: multiple clients sharing one certificate
	// to share policies is the paper's own model (§IV-E).
	Stakeholders int
	// Policies is the number of distinct policies the readers cycle over
	// (default 4).
	Policies int
	// Iterations is the number of attest+fetch rounds per stakeholder
	// (default 50).
	Iterations int
	// FetchesPerAttest is the number of secret fetches following each
	// attestation (default 4) — a config-refresh-heavy mix.
	FetchesPerAttest int
	// Secrets is the number of random secrets per policy (default 32);
	// sizing the policy makes the per-request decode cost this scenario
	// ablates visible.
	Secrets int
	// UpdatePause is the background updater's pause between UpdatePolicy
	// calls (default 2ms); negative disables the updater.
	UpdatePause time.Duration
}

func (o *ReadHeavyOptions) defaults() {
	if o.Stakeholders <= 0 {
		o.Stakeholders = 8
	}
	if o.Policies <= 0 {
		o.Policies = 4
	}
	if o.Iterations <= 0 {
		o.Iterations = 50
	}
	if o.FetchesPerAttest <= 0 {
		o.FetchesPerAttest = 4
	}
	if o.Secrets <= 0 {
		o.Secrets = 32
	}
	if o.UpdatePause == 0 {
		o.UpdatePause = 2 * time.Millisecond
	}
}

// readHeavyOwner is the shared client identity of the read-heavy run.
var readHeavyOwner = core.ClientID{0x5e}

// readHeavyPolicy builds one sizeable shared policy: many random secrets,
// substitution-heavy command/environment, and an injection file.
func (h *Harness) readHeavyPolicy(name string, secrets, iteration int) *policy.Policy {
	p := &policy.Policy{
		Name: name,
		Services: []policy.Service{{
			Name:        "app",
			Command:     fmt.Sprintf("serve --iter %d --token $$secret_00 --backup $$secret_01", iteration),
			MREnclaves:  []sgx.Measurement{h.AppBinary.Measure()},
			Environment: map[string]string{"TOKEN": "$$secret_00", "ITER": fmt.Sprint(iteration)},
			InjectionFiles: []policy.InjectionFile{{
				Path:     "/etc/app/conf",
				Template: "token=$$secret_00\nbackup=$$secret_01\niter=" + fmt.Sprint(iteration) + "\n",
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

// RunReadHeavy drives the read-side hot paths in-process (no HTTP/TLS in
// the way: this scenario isolates the TMS read path the policy cache
// serves; Run covers the full-stack mix). Setup — policy creation, enclave
// launch, a warm-up attestation per policy that mints the FSPF keys — is
// untimed; the measured loop is attestations and secret fetches against a
// background stream of policy updates.
func (h *Harness) RunReadHeavy(ctx context.Context, opts ReadHeavyOptions) (Report, error) {
	opts.defaults()
	inst := h.Instance

	// Untimed setup: M policies, one app enclave, one warm-up attestation
	// per policy so the measured loop never pays the first-execution key
	// mint (a write, not a read).
	names := make([]string, opts.Policies)
	for m := range names {
		names[m] = fmt.Sprintf("readheavy-%d", m)
		if err := inst.CreatePolicy(ctx, readHeavyOwner, h.readHeavyPolicy(names[m], opts.Secrets, 0)); err != nil {
			return Report{}, fmt.Errorf("stress: create %s: %w", names[m], err)
		}
	}
	enclave, err := h.Platform.Launch(h.AppBinary, sgx.LaunchOptions{})
	if err != nil {
		return Report{}, fmt.Errorf("stress: launch app enclave: %w", err)
	}
	defer enclave.Destroy()
	for _, n := range names {
		signer, err := cryptoutil.NewSigner()
		if err != nil {
			return Report{}, err
		}
		if _, err := inst.AttestApplication(context.Background(), attest.NewEvidence(enclave, n, "app", signer.Public), h.Platform.QuotingKey()); err != nil {
			return Report{}, fmt.Errorf("stress: warm-up attest %s: %w", n, err)
		}
	}

	rec := &recorder{}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		if err == nil || ctx.Err() != nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	start := time.Now()
	statsBefore := inst.CacheStats()

	// Background updater: rotates policy content (fresh random secrets,
	// new revision) so the run exercises invalidation, not just a static
	// cache. Conflicted reader attempts surface as ErrConflict and are
	// retried inside AttestApplication; the reader loop treats any other
	// error as fatal.
	stopUpdater := make(chan struct{})
	updaterDone := make(chan struct{})
	if opts.UpdatePause >= 0 {
		usink := rec.newSink()
		go func() {
			defer close(updaterDone)
			for gen := 1; ; gen++ {
				select {
				case <-stopUpdater:
					return
				case <-ctx.Done():
					return
				default:
				}
				name := names[gen%len(names)]
				// A stored update carries no FSPF key, so the next
				// attestation re-mints one (Revision++); that mint landing
				// mid-approval surfaces as a benign ErrConflict here.
				if err := usink.observe("update", func() error {
					return inst.UpdatePolicy(ctx, readHeavyOwner, h.readHeavyPolicy(name, opts.Secrets, gen))
				}); err != nil && !errors.Is(err, core.ErrConflict) {
					fail(fmt.Errorf("stress: updater gen %d (%s): %w", gen, name, err))
				}
				time.Sleep(opts.UpdatePause)
			}
		}()
	} else {
		close(updaterDone)
	}

	for w := 0; w < opts.Stakeholders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := rec.newSink()
			signer, err := cryptoutil.NewSigner()
			if err != nil {
				fail(err)
				return
			}
			// One evidence bundle per (stakeholder, policy), minted
			// untimed: the loop measures PALÆMON's verification and
			// release path, not the driver's quote generation.
			evs := make([]attest.Evidence, len(names))
			for m, n := range names {
				evs[m] = attest.NewEvidence(enclave, n, "app", signer.Public)
			}
			for iter := 0; iter < opts.Iterations; iter++ {
				if ctx.Err() != nil {
					return
				}
				m := (w + iter) % len(names)
				// ErrConflict is a benign casualty of the background
				// updater (AttestApplication's retry budget can run out
				// under sustained churn); anything else is a real failure.
				if err := sink.observe("attest", func() error {
					_, err := inst.AttestApplication(context.Background(), evs[m], h.Platform.QuotingKey())
					return err
				}); err != nil && !errors.Is(err, core.ErrConflict) {
					fail(fmt.Errorf("stress: reader %d attest %s: %w", w, names[m], err))
					return
				}
				for f := 0; f < opts.FetchesPerAttest; f++ {
					if err := sink.observe("fetch-secrets", func() error {
						_, err := inst.FetchSecrets(ctx, readHeavyOwner, names[m], nil)
						return err
					}); err != nil && !errors.Is(err, core.ErrConflict) {
						fail(fmt.Errorf("stress: reader %d fetch %s: %w", w, names[m], err))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopUpdater)
	<-updaterDone

	rep := rec.report(opts.Stakeholders, time.Since(start))
	rep.Cache = inst.CacheStats().Since(statsBefore)

	// Untimed cleanup.
	for _, n := range names {
		if err := inst.DeletePolicy(ctx, readHeavyOwner, n); err != nil && ctx.Err() == nil {
			fail(fmt.Errorf("stress: delete %s: %w", n, err))
		}
	}
	return rep, firstErr
}

// BenchPolicy builds a small attestable policy for benchmarks and the
// figures harness: one service bound to AppBinary, two random secrets.
func (h *Harness) BenchPolicy(name string) *policy.Policy {
	return h.readHeavyPolicy(name, 2, 0)
}
