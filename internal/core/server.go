package core

import (
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/ca"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/ias"
	"palaemon/internal/obs"
)

// Server exposes an Instance over the REST/TLS API (§IV-E). Two attestation
// paths are offered to clients (§IV-B): the TLS certificate issued by the
// PALÆMON CA (checked implicitly by the TLS handshake on the client side),
// and the explicit /attestation endpoint serving an IAS-style report plus a
// challenge-response proof of the instance identity key.
type Server struct {
	inst *Instance
	srv  *http.Server
	ln   net.Listener
	url  string
	done chan struct{}

	// adm is the admission controller (nil without ServerOptions.Limits).
	adm *admission

	// obs is the observability bundle; nil when ServerOptions.Obs was nil
	// (the zero-overhead ablation: no middleware is installed at all, so
	// the serving path is byte-for-byte the uninstrumented one).
	obs *obs.Obs

	iasReport *ias.Report
	iasPub    ed25519.PublicKey

	// fleet is ServerOptions.Fleet; nil for a standalone server.
	fleet *FleetHooks
}

// Connection-hygiene defaults (ServerOptions overrides). ReadTimeout
// covers header AND body, so a slow-loris writer trickling a request body
// is reaped; IdleTimeout reaps dead keep-alive connections; the write
// budget bounds each response (the watch long-poll extends its own
// deadline per poll window via http.ResponseController).
const (
	defaultReadTimeout = 30 * time.Second
	defaultIdleTimeout = 2 * time.Minute
	defaultWriteBudget = 30 * time.Second
	watchDeadlineSlack = 10 * time.Second
)

// ServerOptions wires the server's PKI and attestation artefacts.
type ServerOptions struct {
	// Authority is the PALÆMON CA that certifies this instance. Required.
	Authority *ca.Authority
	// IAS optionally provides the explicit attestation report path.
	IAS *ias.Service
	// Addr defaults to a dynamic loopback port.
	Addr string
	// Limits enables the admission-control layer in front of every route
	// (per-tenant token buckets + the instance-wide concurrency gate,
	// admission.go). Nil disables it.
	Limits *AdmissionLimits
	// ReadTimeout bounds reading one request, headers and body included
	// (slow-loris protection). Default 30s; negative disables.
	ReadTimeout time.Duration
	// IdleTimeout reaps idle keep-alive connections. Default 2m;
	// negative disables.
	IdleTimeout time.Duration
	// RequestWriteTimeout is the per-request write deadline set when a
	// handler starts (the watch long-poll extends it by its poll window).
	// Default 30s; negative disables.
	RequestWriteTimeout time.Duration
	// Obs enables the request-observability middleware: per-request IDs,
	// one canonical log line per request, RED metrics per route+tenant,
	// and audit records for admission rejections. Usually the same bundle
	// passed to core.Open. Nil disables the middleware entirely.
	Obs *obs.Obs
	// Fleet mounts the fleetOnly rows of the route table (routes.go): the
	// signed discovery document, shard-ownership enforcement with
	// wrong_shard redirects, and the follower replication feed. Nil for a
	// standalone server — the fleet routes then simply do not exist.
	Fleet *FleetHooks
	// WrapListener wraps the raw TCP listener BEFORE the TLS layer; the
	// fleet kill-a-shard tests use it to black-hole a shard at the
	// transport (fault.Listener) so failover is exercised against real
	// connection failures, not polite HTTP errors. Nil is identity.
	WrapListener func(net.Listener) net.Listener
}

// Serve attests the instance to the CA, obtains its TLS certificate, and
// starts the REST endpoint. It returns the server handle.
func Serve(inst *Instance, opts ServerOptions) (*Server, error) {
	if opts.Authority == nil {
		return nil, errors.New("core: server requires a CA")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}

	// Instance TLS identity: fresh ECDSA key, quote binding its hash,
	// certificate from the PALÆMON CA after attestation (§IV-B).
	tlsKey, err := ca.GenerateInstanceKey()
	if err != nil {
		return nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&tlsKey.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("core: marshal instance key: %w", err)
	}
	keyHash := attest.KeyHash(pubDER)
	quote := inst.enclave.GetQuote(keyHash[:])
	iss, err := opts.Authority.Certify(ca.CertRequest{
		Evidence: attest.Evidence{
			PolicyName:  "palaemon",
			ServiceName: "palaemon",
			SessionKey:  pubDER,
			Quote:       quote,
		},
		QuotingKey: inst.platform.QuotingKey(),
		CommonName: "palaemon-instance",
		IPs:        []net.IP{net.IPv4(127, 0, 0, 1)},
	}, &tlsKey.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("core: CA refused instance: %w", err)
	}
	cert := tls.Certificate{
		Certificate: [][]byte{iss.CertDER},
		PrivateKey:  tlsKey,
		Leaf:        iss.Leaf,
	}

	s := &Server{inst: inst, done: make(chan struct{}), obs: opts.Obs, fleet: opts.Fleet}
	if opts.Limits != nil {
		s.adm = newAdmission(*opts.Limits)
		if opts.Obs != nil {
			registerAdmissionCollector(opts.Obs.Metrics, s)
		}
	}

	if opts.IAS != nil {
		// Obtain the explicit-attestation report once at startup, binding
		// the instance identity key (not the TLS key): clients verify the
		// report and then challenge the identity key (§IV-B).
		idHash := attest.KeyHash(inst.PublicKey())
		report, err := opts.IAS.VerifyQuote(inst.enclave.GetQuote(idHash[:]))
		if err != nil {
			return nil, fmt.Errorf("core: IAS attestation: %w", err)
		}
		s.iasReport = &report
		s.iasPub = opts.IAS.PublicKey()
	}

	tlsCfg := &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{cert},
		// Policy endpoints authenticate clients by certificate fingerprint
		// (clients typically use self-signed certificates, §IV-E), so any
		// client certificate is accepted at the TLS layer and pinned at
		// the application layer.
		ClientAuth: tls.RequestClientCert,
	}
	// Listen raw, wrap (fault injection hooks in below TLS, so a refused
	// shard looks like a dead host, not a TLS alert), then layer TLS.
	rawLn, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("core: listen: %w", err)
	}
	if opts.WrapListener != nil {
		rawLn = opts.WrapListener(rawLn)
	}
	ln := tls.NewListener(rawLn, tlsCfg)

	mux := http.NewServeMux()
	s.mount(mux)

	writeBudget := timeoutOrDefault(opts.RequestWriteTimeout, defaultWriteBudget)
	// The write deadline is per REQUEST, not per connection (http.Server's
	// WriteTimeout would kill every watch long-poll on a reused
	// connection): armed here when the handler starts, extended by the
	// watch handler for its poll window.
	var handler http.Handler = mux
	if writeBudget > 0 {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(writeBudget))
			mux.ServeHTTP(w, r)
		})
	}
	if s.obs != nil {
		// Outermost, so the latency it measures covers admission and the
		// write-deadline arming, and its ResponseWriter wrapper sees every
		// byte (Unwrap keeps ResponseController reaching the real conn).
		handler = s.obsHandler(handler)
	}
	s.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeoutOrDefault(opts.ReadTimeout, defaultReadTimeout),
		IdleTimeout:       timeoutOrDefault(opts.IdleTimeout, defaultIdleTimeout),
	}
	s.ln = ln
	s.url = "https://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			_ = err // surfaced via health checks in a deployment
		}
	}()
	return s, nil
}

// URL returns the server base URL.
func (s *Server) URL() string { return s.url }

// Done is closed once the server has stopped serving; readiness probes
// watch it to flip unready before shutdown completes.
func (s *Server) Done() <-chan struct{} { return s.done }

// Instance returns the served instance.
func (s *Server) Instance() *Instance { return s.inst }

// Close stops the HTTP endpoint (the instance lifecycle is separate:
// callers Shutdown the instance to run the Fig 6 drain).
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// clientID returns the fingerprint of the presented client certificate:
// the one the edge middleware hashed and left in the request context when
// there is one, hashed here otherwise (ServerOptions.Obs == nil installs
// no middleware).
func clientID(r *http.Request) (ClientID, bool) {
	if rq := obs.RequestFrom(r.Context()); rq != nil {
		return ClientID(rq.Peer), rq.HasPeer
	}
	return peerFingerprint(r)
}

// peerFingerprint hashes the peer certificate of the request's connection.
func peerFingerprint(r *http.Request) (ClientID, bool) {
	if r.TLS == nil || len(r.TLS.PeerCertificates) == 0 {
		return ClientID{}, false
	}
	return ClientID(cryptoutil.CertFingerprint(r.TLS.PeerCertificates[0].Raw)), true
}

// writeJSON is the one writer of response bodies. A json.RawMessage is a
// body some earlier call of this encoder produced (trailing newline
// included) and goes out verbatim, with its length declared: net/http
// works a length out itself only below 2 KiB and chunks anything larger,
// and a chunked body is one the client cannot size its read for. Anything
// else is encoded here.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if raw, ok := v.(json.RawMessage); ok {
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		w.WriteHeader(status)
		_, _ = w.Write(raw)
		return
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// timeoutOrDefault resolves an option: zero means the default, negative
// disables (returns 0, which http.Server treats as "no timeout").
func timeoutOrDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}
