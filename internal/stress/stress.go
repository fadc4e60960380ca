// Package stress is the concurrency harness for PALÆMON: it boots a fully
// attested deployment (platform, IAS, CA, instance, REST/TLS server) and
// mints stakeholders, each with its own certificate and pooled client.
//
// Its consumers are the -race concurrency regression tests (many
// stakeholders against one instance must be linearizable and error-free),
// the observability benchmark (DESIGN.md §11), and the correctness
// scenarios: overload and slow-loris (§10), Byzantine stakeholders (§13),
// and the kill-a-shard failover drill behind `palaemonreport fleet` (§14).
package stress

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"time"

	"palaemon/internal/board"
	"palaemon/internal/ca"
	"palaemon/internal/core"
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
