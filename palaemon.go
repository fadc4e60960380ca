// Package palaemon is the public API of the PALÆMON trust management
// service reproduction (Gregor et al., "Trust Management as a Service:
// Enabling Trusted Execution in the Face of Byzantine Stakeholders",
// DSN 2020).
//
// The facade wires the subsystems into three roles:
//
//   - Deployment: an operator (possibly untrusted, §III-B) starts a
//     PALÆMON instance inside a TEE with StartService, which attests the
//     instance to the PALÆMON CA and exposes the REST/TLS API.
//   - Client: stakeholders connect with Connect, attest the instance (via
//     the CA-signed TLS certificate or explicitly via the IAS-style
//     report), and manage security policies guarded by policy boards.
//   - Application: workloads start under the SCONE-like runtime with
//     RunApp, which attests the application binary, mounts the encrypted
//     file-system shield, injects secrets, and keeps PALÆMON's expected
//     tags current for rollback protection.
//
// See the examples/ directory for complete scenarios and DESIGN.md for the
// architecture and experiment map.
package palaemon

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"palaemon/internal/board"
	"palaemon/internal/ca"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/ias"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
	"palaemon/internal/runtime"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
	"palaemon/internal/simnet"
	"palaemon/internal/wire"
)

// Re-exported core types, so callers need only this package for common use.
type (
	// Policy is a PALÆMON security policy (§III-A).
	Policy = policy.Policy
	// Service is one application entry within a policy.
	Service = policy.Service
	// Secret is a named secret declaration.
	Secret = policy.Secret
	// Board is a policy board definition (§III-C).
	Board = policy.Board
	// BoardMember is one stakeholder on a board.
	BoardMember = policy.BoardMember
	// InjectionFile maps a path to a secret-bearing template.
	InjectionFile = policy.InjectionFile
	// AppConfig is the configuration released to an attested application.
	AppConfig = core.AppConfig
	// Tag is a file-system freshness tag.
	Tag = fspf.Tag
	// Measurement is an MRENCLAVE.
	Measurement = sgx.Measurement
	// Binary is a measured application binary.
	Binary = sgx.Binary
	// Platform is a (simulated) SGX host.
	Platform = sgx.Platform
	// Mode selects Native/EMU/HW execution.
	Mode = runtime.Mode
	// App is a running shielded application.
	App = runtime.App
	// Client talks to a PALÆMON instance over REST/TLS.
	Client = core.Client
	// ClientID is a client-certificate fingerprint identity.
	ClientID = core.ClientID
	// ApprovalFunc is a board member's decision logic.
	ApprovalFunc = board.ApprovalFunc
	// ApprovalRequest is the change description board members decide on.
	ApprovalRequest = board.Request
	// PolicyImport declares consumption of another policy's exports.
	PolicyImport = policy.Import
	// PolicyExport declares what other policies may consume.
	PolicyExport = policy.Export
	// BatchOp is one operation in a v2 batch request (one WAN round trip
	// for many heterogeneous operations).
	BatchOp = wire.BatchOp
	// BatchResult is one batch operation's outcome.
	BatchResult = wire.BatchResult
	// PolicyList is one page of Client.ListPolicies.
	PolicyList = wire.PolicyList
	// WatchEvent is the outcome of a policy watch long-poll.
	WatchEvent = wire.WatchResponse
	// WireError is the v2 structured error envelope {code, message,
	// detail, retryable, status}; recover it with errors.As.
	WireError = wire.Error
	// AdmissionLimits configures the per-tenant admission-control layer
	// (DeploymentOptions.Limits).
	AdmissionLimits = core.AdmissionLimits
)

// WireVersion is the wire protocol generation Client speaks by default.
const WireVersion = wire.Version

// Batch operation kinds, re-exported from the wire contract.
const (
	OpFetchSecrets = wire.OpFetchSecrets
	OpReadPolicy   = wire.OpReadPolicy
	OpReadTag      = wire.OpReadTag
	OpPushTag      = wire.OpPushTag
	OpNotifyExit   = wire.OpNotifyExit
)

// Execution modes re-exported from the runtime.
const (
	ModeNative = runtime.ModeNative
	ModeEMU    = runtime.ModeEMU
	ModeHW     = runtime.ModeHW
)

// Secret type constants.
const (
	SecretExplicit = policy.SecretExplicit
	SecretRandom   = policy.SecretRandom
	SecretImported = policy.SecretImported
)

// NewPlatform creates a simulated SGX platform with default calibration.
func NewPlatform() (*Platform, error) {
	return sgx.NewPlatform(sgx.Options{})
}

// NewFastPlatform creates a platform whose monotonic counter has no rate
// limit; examples and tests use it to avoid 50 ms startup stalls.
func NewFastPlatform() (*Platform, error) {
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	return sgx.NewPlatform(sgx.Options{Model: model})
}

// OpenPlatformDir opens (or creates) a durable platform rooted at dir: the
// platform identity, sealing key, quoting key, and monotonic counters
// persist there, so a later process restores the same platform and can
// unseal what this one sealed (§IV-B). The counter keeps the fast (no rate
// limit) calibration of NewFastPlatform.
func OpenPlatformDir(dir string) (*Platform, error) {
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	return sgx.OpenPlatform(sgx.Options{StateDir: dir, Model: model})
}

// Deployment is a full PALÆMON deployment: instance, CA, IAS, HTTP server.
type Deployment struct {
	// Platform hosts every enclave of the deployment.
	Platform *Platform
	// Instance is the running TMS.
	Instance *core.Instance
	// Authority is the PALÆMON CA.
	Authority *ca.Authority
	// IAS is the attestation verification service.
	IAS *ias.Service
	// Server is the REST/TLS endpoint.
	Server *core.Server
	// Obs is the deployment's observability bundle (logger, metrics
	// registry, audit chain); nil when observability is disabled.
	Obs *obs.Obs

	// ops is the plaintext operational endpoint (nil without OpsAddr).
	ops *obs.OpsServer
	// ownsPlatform records that StartService opened the durable platform
	// itself, so Close must release its state-dir lock.
	ownsPlatform bool
}

// DeploymentOptions configures StartService.
type DeploymentOptions struct {
	// Platform hosts the deployment. When nil, the platform is opened
	// durably from PlatformDir (default: <DataDir>/platform), so a process
	// restart against the same DataDir reuses the on-disk platform — same
	// sealing key, quoting key, and monotonic counters — instead of
	// minting a fresh one that could not unseal the stored identity.
	Platform *Platform
	// PlatformDir overrides where the durable platform state lives when
	// Platform is nil.
	PlatformDir string
	// DataDir stores the encrypted database (required).
	DataDir string
	// Evaluator reaches policy-board approval services.
	Evaluator *board.Evaluator
	// Recover acknowledges a fail-over after a crash (§IV-D).
	Recover bool
	// Limits enables admission control in front of every route: per-tenant
	// token-bucket rate limits plus a bounded instance-wide concurrency
	// gate, keyed by the client-certificate identity. Nil serves without
	// limits.
	Limits *AdmissionLimits

	// Observability enables the unified observability layer (DESIGN.md
	// §11): structured request logs, RED metrics, and the tamper-evident
	// audit chain. When false the serving path carries zero
	// instrumentation.
	Observability bool
	// LogHandler receives the structured logs when Observability is set.
	// Nil discards them (metrics and audit still run).
	LogHandler LogHandler
	// AuditPath is the hash-chained audit log file. Empty with
	// Observability set means <DataDir>/audit.log; "off" disables the
	// audit chain while keeping logs and metrics.
	AuditPath string
	// OpsAddr, when non-empty, serves the plaintext operational endpoint
	// (/metrics, /healthz, /readyz, /debug/pprof) on that address —
	// "127.0.0.1:0" picks a free port. Requires Observability.
	OpsAddr string
}

// LogHandler is the slog.Handler structured logs flow into.
type LogHandler = slog.Handler

// NewTextLogHandler returns a human-readable key=value log handler at the
// given level, for DeploymentOptions.LogHandler.
func NewTextLogHandler(w io.Writer, level slog.Level) slog.Handler {
	return slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
}

// StartService starts a managed PALÆMON instance: it launches the enclave,
// runs the Fig 6 startup protocol, attests the instance to a fresh PALÆMON
// CA and IAS, and opens the REST/TLS endpoint.
func StartService(opts DeploymentOptions) (*Deployment, error) {
	p := opts.Platform
	ownsPlatform := false
	if p == nil {
		dir := opts.PlatformDir
		if dir == "" && opts.DataDir != "" {
			dir = filepath.Join(opts.DataDir, "platform")
		}
		if dir != "" {
			durable, err := OpenPlatformDir(dir)
			if err != nil {
				return nil, err
			}
			p = durable
			ownsPlatform = true
		} else {
			fresh, err := NewFastPlatform()
			if err != nil {
				return nil, err
			}
			p = fresh
		}
	}
	// From here on a failure must release the state-dir lock we took, or
	// an in-process retry (e.g. with Recover set) would find it held.
	fail := func(err error) (*Deployment, error) {
		if ownsPlatform {
			p.Close()
		}
		return nil, err
	}
	iasSvc, err := ias.New(p.Clock(), 70*time.Millisecond)
	if err != nil {
		return fail(err)
	}
	iasSvc.RegisterPlatform(p.ID(), p.QuotingKey())

	var bundle *obs.Obs
	if opts.Observability {
		bundle = obs.New(opts.LogHandler)
		switch path := opts.AuditPath; {
		case path == "off":
		case path == "" && opts.DataDir == "":
		default:
			if path == "" {
				path = filepath.Join(opts.DataDir, "audit.log")
			}
			// The audit chain opens before core.Open creates DataDir.
			if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
				return fail(err)
			}
			audit, err := obs.OpenAudit(path)
			if err != nil {
				return fail(err)
			}
			bundle.Audit = audit
		}
	} else if opts.OpsAddr != "" {
		return fail(fmt.Errorf("palaemon: OpsAddr requires Observability"))
	}
	closeAudit := func() {
		if bundle != nil {
			bundle.Audit.Close()
		}
	}

	inst, err := core.Open(core.Options{
		Platform:  p,
		DataDir:   opts.DataDir,
		Evaluator: opts.Evaluator,
		Recover:   opts.Recover,
		Obs:       bundle,
	})
	if err != nil {
		closeAudit()
		return fail(err)
	}
	authority, err := ca.New(p, ca.Config{
		TrustedMREs:  []sgx.Measurement{inst.MRE()},
		CertValidity: 24 * time.Hour,
	})
	if err != nil {
		inst.Shutdown(context.Background())
		closeAudit()
		return fail(err)
	}
	server, err := core.Serve(inst, core.ServerOptions{Authority: authority, IAS: iasSvc, Limits: opts.Limits, Obs: bundle})
	if err != nil {
		inst.Shutdown(context.Background())
		authority.Close()
		closeAudit()
		return fail(err)
	}
	var opsSrv *obs.OpsServer
	if opts.OpsAddr != "" {
		opsSrv, err = obs.ServeOps(obs.OpsOptions{
			Addr:     opts.OpsAddr,
			Registry: bundle.Metrics,
			Readyz: func() error {
				select {
				case <-server.Done():
					return fmt.Errorf("server closed")
				default:
					return nil
				}
			},
		})
		if err != nil {
			server.Close()
			inst.Shutdown(context.Background())
			authority.Close()
			closeAudit()
			return fail(err)
		}
	}
	return &Deployment{
		Platform:     p,
		Instance:     inst,
		Authority:    authority,
		IAS:          iasSvc,
		Server:       server,
		Obs:          bundle,
		ops:          opsSrv,
		ownsPlatform: ownsPlatform,
	}, nil
}

// URL returns the instance endpoint.
func (d *Deployment) URL() string { return d.Server.URL() }

// OpsURL returns the operational endpoint's base URL, or "" when OpsAddr
// was not configured.
func (d *Deployment) OpsURL() string {
	if d.ops == nil {
		return ""
	}
	return d.ops.URL()
}

// Close gracefully shuts the deployment down (Fig 6 drain included). Every
// step runs even when an earlier one fails — a half-failed close must still
// release the CA and the platform's state-dir lock, or an in-process
// restart against the same DataDir would find the platform "in use". The
// first error is returned.
func (d *Deployment) Close() error {
	firstErr := d.ops.Close()
	if err := d.Server.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := d.Instance.Shutdown(context.Background()); err != nil && firstErr == nil {
		firstErr = err
	}
	if d.Obs != nil {
		if err := d.Obs.Audit.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.Authority.Close()
	if d.ownsPlatform {
		if err := d.Platform.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ConnectOptions configures a client connection.
type ConnectOptions struct {
	// Name labels the client certificate.
	Name string
	// Profile models the network distance (Fig 12); loopback by default.
	Profile simnet.Profile
}

// Connect creates a client with a fresh self-signed certificate, trusting
// the deployment's CA root (the TLS attestation path, §IV-B). It returns
// the client and its certificate identity.
func (d *Deployment) Connect(opts ConnectOptions) (*Client, ClientID, error) {
	if opts.Name == "" {
		opts.Name = "client"
	}
	cert, id, err := core.NewClientCertificate(opts.Name)
	if err != nil {
		return nil, ClientID{}, err
	}
	cli := core.NewClient(core.ClientOptions{
		BaseURL:     d.Server.URL(),
		Roots:       d.Authority.Root().Pool(),
		Certificate: cert,
		Profile:     opts.Profile,
	})
	return cli, id, nil
}

// ConnectUntrusted returns a client that does NOT trust the CA and must use
// explicit attestation (Client.VerifyInstance) before relying on the
// instance.
func (d *Deployment) ConnectUntrusted() *Client {
	return core.NewClient(core.ClientOptions{BaseURL: d.Server.URL()})
}

// NewClientCertificate mints a standalone client certificate.
func NewClientCertificate(name string) (*tls.Certificate, ClientID, error) {
	return core.NewClientCertificate(name)
}

// RunAppOptions configures RunApp.
type RunAppOptions struct {
	// Binary is the application to run (its MRE must be in the policy).
	Binary Binary
	// PolicyName / ServiceName select the policy entry.
	PolicyName  string
	ServiceName string
	// Mode selects Native/EMU/HW (default HW).
	Mode Mode
	// Image restores the encrypted volume from untrusted storage.
	Image []byte
	// HeapBytes sizes the enclave heap.
	HeapBytes int64
}

// RunApp starts an application under the SCONE-like runtime against this
// deployment, performing attestation and shield setup (§IV-A).
func (d *Deployment) RunApp(ctx context.Context, opts RunAppOptions) (*App, error) {
	return runtime.Start(ctx, runtime.Options{
		Platform:    d.Platform,
		Binary:      opts.Binary,
		PolicyName:  opts.PolicyName,
		ServiceName: opts.ServiceName,
		TMS:         &core.Local{Inst: d.Instance},
		Mode:        opts.Mode,
		Image:       opts.Image,
		HeapBytes:   opts.HeapBytes,
	})
}

// NewBoard starts n approval services with the given decision functions and
// returns the board definition (threshold = all members, the paper's
// practical convention) plus an evaluator and a cleanup function.
func NewBoard(names []string, decisions []board.ApprovalFunc) (Board, *board.Evaluator, func(), error) {
	if len(names) != len(decisions) {
		return Board{}, nil, nil, fmt.Errorf("palaemon: %d names for %d decisions", len(names), len(decisions))
	}
	approvalCA, err := cryptoutil.NewCertAuthority("Palaemon Approval Root", 24*time.Hour)
	if err != nil {
		return Board{}, nil, nil, err
	}
	var b Board
	var members []*board.Member
	cleanup := func() {
		for _, m := range members {
			m.Close()
		}
	}
	for i, name := range names {
		m, err := board.NewMember(name, board.WithDecision(decisions[i]))
		if err != nil {
			cleanup()
			return Board{}, nil, nil, err
		}
		if _, err := m.Serve(approvalCA); err != nil {
			cleanup()
			return Board{}, nil, nil, err
		}
		members = append(members, m)
		b.Members = append(b.Members, m.Descriptor(false))
	}
	b.Threshold = len(names)
	return b, board.NewEvaluator(approvalCA, 5*time.Second), cleanup, nil
}

// ApproveAll / RejectAll re-export the stock decision functions.
var (
	ApproveAll = board.ApproveAll
	RejectAll  = board.RejectAll
)

// ParsePolicy parses the YAML policy dialect of the paper's List 1.
func ParsePolicy(src string) (*Policy, error) { return policy.Parse(src) }

// MeasureBinary computes a binary's MRENCLAVE for use in policies.
func MeasureBinary(b Binary) Measurement { return b.Measure() }

// Clock re-exports the wall clock for callers that parameterise time.
func Clock() simclock.Clock { return simclock.Wall{} }
