package core

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/ias"
	"palaemon/internal/policy"
	"palaemon/internal/simclock"
	"palaemon/internal/simnet"
	"palaemon/internal/wire"
)

// ErrResponseTooLarge reports a response body exceeding the wire
// contract's 8 MiB cap (wire.MaxResponseBytes). Before this sentinel
// existed, oversized responses surfaced as confusing truncated-JSON
// decode failures.
var ErrResponseTooLarge = errors.New("core: response exceeds the 8 MiB wire cap")

// Client talks to a PALÆMON instance over its REST/TLS API, speaking the
// wire protocol of internal/wire (typed DTOs, structured error envelopes).
// It implements both attestation paths of §IV-B: TLS-based (verify the
// server certificate against the PALÆMON CA root) and explicit (fetch the
// IAS report, verify it, check the MRE, and challenge the identity key).
type Client struct {
	base      string
	http      *http.Client
	transport *http.Transport
	profile   simnet.Profile
	clock     simclock.Clock
	timeout   time.Duration
	// Retry policy (ClientOptions.MaxRetries and friends); maxRetries == 0
	// means every operation is single-shot.
	maxRetries int
	retryBase  time.Duration
	retryMax   time.Duration
	// seq numbers requests for the network model; atomic because one
	// client may be shared by many stakeholder goroutines.
	seq atomic.Uint64
}

// ClientOptions configures a client.
type ClientOptions struct {
	// BaseURL is the instance endpoint.
	BaseURL string
	// Roots trusts the PALÆMON CA root; nil skips TLS verification (the
	// client must then use explicit attestation before trusting anything).
	Roots *x509.CertPool
	// Certificate is the client certificate used for policy access.
	Certificate *tls.Certificate
	// Profile models the network distance to the instance (Fig 12);
	// Loopback by default.
	Profile simnet.Profile
	// Clock sleeps the modelled distance; defaults to wall clock.
	Clock simclock.Clock
	// Timeout bounds each request.
	Timeout time.Duration
	// MaxIdleConns caps the pooled keep-alive connections (default 64).
	MaxIdleConns int
	// IdleConnTimeout evicts idle pooled connections (default 90s).
	IdleConnTimeout time.Duration
	// DisableKeepAlives forces one TLS handshake per request — only the
	// connection-cost ablation (DESIGN.md §5) wants this.
	DisableKeepAlives bool
	// MaxRetries enables automatic retries: up to this many re-issues of a
	// request that failed with a Retryable wire error (conflict, draining,
	// resource_exhausted), after a jittered exponential backoff that
	// honors the server's Retry-After hint. 0 (the default) disables
	// retries. Watch long-polls never auto-retry regardless — their caller
	// owns the re-arm loop, and auto-retrying a rejected poll would turn
	// it into a busy spin.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 25ms).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps a single backoff sleep (default 2s).
	RetryMaxDelay time.Duration
	// WrapTransport wraps the HTTP transport (fault.RoundTripper in the
	// fleet and chaos tests: drops, delays, duplicates). Nil is identity.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

// NewClient constructs a client. The underlying transport pools keep-alive
// connections, so a stakeholder issuing many requests pays the TLS
// handshake once, not per call — essential for the hot paths of Fig 11.
func NewClient(opts ClientOptions) *Client {
	tlsCfg := &tls.Config{MinVersion: tls.VersionTLS13}
	if opts.Roots != nil {
		tlsCfg.RootCAs = opts.Roots
	} else {
		tlsCfg.InsecureSkipVerify = true
	}
	if opts.Certificate != nil {
		tlsCfg.Certificates = []tls.Certificate{*opts.Certificate}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Wall{}
	}
	if opts.Profile.Name == "" {
		opts.Profile = simnet.Loopback
	}
	if opts.MaxIdleConns <= 0 {
		opts.MaxIdleConns = 64
	}
	if opts.IdleConnTimeout <= 0 {
		opts.IdleConnTimeout = 90 * time.Second
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 25 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 2 * time.Second
	}
	transport := &http.Transport{
		TLSClientConfig: tlsCfg,
		// The client talks to one instance, so the per-host pool is the
		// whole pool: size them identically.
		MaxIdleConns:        opts.MaxIdleConns,
		MaxIdleConnsPerHost: opts.MaxIdleConns,
		IdleConnTimeout:     opts.IdleConnTimeout,
		TLSHandshakeTimeout: 10 * time.Second,
		DisableKeepAlives:   opts.DisableKeepAlives,
	}
	var rt http.RoundTripper = transport
	if opts.WrapTransport != nil {
		rt = opts.WrapTransport(transport)
	}
	return &Client{
		base: opts.BaseURL,
		http: &http.Client{
			Transport: rt,
			Timeout:   opts.Timeout,
		},
		transport:  transport,
		profile:    opts.Profile,
		clock:      opts.Clock,
		timeout:    opts.Timeout,
		maxRetries: opts.MaxRetries,
		retryBase:  opts.RetryBaseDelay,
		retryMax:   opts.RetryMaxDelay,
	}
}

// CloseIdle drops pooled connections; call when a stakeholder is done with
// the instance for a while.
func (c *Client) CloseIdle() { c.transport.CloseIdleConnections() }

// NewClientCertificate mints a self-signed client certificate; its
// fingerprint becomes the client's identity at the instance (§IV-E).
func NewClientCertificate(commonName string) (*tls.Certificate, ClientID, error) {
	// A throwaway CA issuing a single leaf keeps the code path uniform.
	selfCA, err := cryptoutil.NewCertAuthority("client-"+commonName, 365*24*time.Hour)
	if err != nil {
		return nil, ClientID{}, err
	}
	iss, err := selfCA.Issue(cryptoutil.IssueOptions{
		CommonName: commonName,
		Validity:   365 * 24 * time.Hour,
		Client:     true,
	})
	if err != nil {
		return nil, ClientID{}, err
	}
	cert := iss.TLSCertificate()
	return &cert, ClientID(cryptoutil.CertFingerprint(iss.CertDER)), nil
}

// charge models the WAN round trip for one request/response pair.
func (c *Client) charge(reqBytes, respBytes int, tracker *simclock.Tracker) {
	d := c.profile.RoundTrip(reqBytes, respBytes, c.seq.Add(1))
	if tracker != nil {
		tracker.Add("network", d)
		return
	}
	c.clock.Sleep(d)
}

// doRaw performs one JSON exchange and returns the raw outcome; error
// bodies are NOT decoded here (do handles that). The response read is
// capped at the wire contract's limit and truncation is reported as
// ErrResponseTooLarge rather than a downstream JSON decode failure.
func (c *Client) doRaw(ctx context.Context, method, path string, in any, headers map[string]string, tracker *simclock.Tracker) (int, http.Header, []byte, error) {
	var body []byte
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("core: encode request: %w", err)
		}
		body = raw
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := readSized(io.LimitReader(resp.Body, wire.MaxResponseBytes+1), resp.ContentLength)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: read response: %w", err)
	}
	if len(raw) > wire.MaxResponseBytes {
		return 0, nil, nil, fmt.Errorf("%w: %s %s", ErrResponseTooLarge, method, path)
	}
	c.charge(len(body), len(raw), tracker)
	return resp.StatusCode, resp.Header, raw, nil
}

// do performs a JSON request, decoding error bodies into errors that
// satisfy errors.Is against the core sentinels. With MaxRetries set, Retryable failures (conflict,
// draining, resource_exhausted) are re-issued after a jittered
// exponential backoff; terminal errors and transport failures return
// immediately. Watch long-polls go through doOnce instead — see
// WatchPolicy.
func (c *Client) do(ctx context.Context, method, path string, in, out any, tracker *simclock.Tracker) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, path, in, out, tracker)
		if err == nil || attempt >= c.maxRetries || !Retryable(err) {
			return err
		}
		delay := c.backoff(attempt)
		// The server's Retry-After hint floors the backoff: retrying
		// before the tenant's bucket refills is guaranteed to fail again.
		if hint := RetryAfter(err); hint > delay {
			delay = hint
		}
		if !sleepCtx(ctx, delay) {
			// Cancelled mid-backoff: surface both the cancellation (so
			// errors.Is(err, context.Canceled) holds) and the last failure.
			return errors.Join(ctx.Err(), err)
		}
	}
}

// doOnce is one request/response exchange with no retry policy.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any, tracker *simclock.Tracker) error {
	status, _, raw, err := c.doRaw(ctx, method, wire.PathPrefix+path, in, nil, tracker)
	if err != nil {
		return err
	}
	if status >= 400 {
		return decodeError(method, path, status, raw)
	}
	if out != nil {
		if err := wire.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("core: decode response: %w", err)
		}
	}
	return nil
}

// backoff computes the jittered exponential delay for attempt (0-based):
// uniformly random in (base·2ᵃ/2, base·2ᵃ], capped at retryMax. Full
// determinism is not wanted here — the jitter exists to decorrelate
// stakeholders that were rejected by the same overload spike.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.retryBase << uint(attempt)
	if d <= 0 || d > c.retryMax { // <<-overflow guard and cap
		d = c.retryMax
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

// sleepCtx sleeps for d or until ctx is done; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// maxErrorExcerpt bounds how much of a non-envelope error body (a proxy's
// HTML page, say) is quoted in the client-side error.
const maxErrorExcerpt = 256

// decodeError reconstructs a client-side error from an error response
// body. Anything that is not the structured envelope reports method, path,
// status and a body excerpt, and deliberately matches no sentinel: a
// status code alone does not say which instance error occurred.
func decodeError(method, path string, status int, raw []byte) error {
	var we wire.Error
	if wire.Unmarshal(raw, &we) == nil && we.Code != "" {
		if we.Status == 0 {
			we.Status = status
		}
		return errorFromWire(&we)
	}
	if len(raw) > maxErrorExcerpt {
		raw = raw[:maxErrorExcerpt]
	}
	return fmt.Errorf("core: %s %s: status %d: %s", method, path, status, bytes.TrimSpace(raw))
}

// --- Policy CRUD -------------------------------------------------------------

// CreatePolicy uploads a new policy.
func (c *Client) CreatePolicy(ctx context.Context, p *policy.Policy) error {
	return c.do(ctx, http.MethodPost, "/policies", p, nil, nil)
}

// ReadPolicy fetches a policy with secrets (creator certificate required).
func (c *Client) ReadPolicy(ctx context.Context, name string) (*policy.Policy, error) {
	var p policy.Policy
	if err := c.do(ctx, http.MethodGet, "/policies/"+name, nil, &p, nil); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadPolicyIfChanged is the revision-aware read: it presents the
// known (CreateID, Revision) pair as an If-None-Match entity tag and the
// server answers 304 — no body, no policy encode, no board round trip —
// when the stored policy still matches. modified=false with a nil policy
// means the caller's copy is current.
func (c *Client) ReadPolicyIfChanged(ctx context.Context, name string, knownCreateID, knownRev uint64) (p *policy.Policy, modified bool, err error) {
	headers := map[string]string{"If-None-Match": wire.ETag(knownCreateID, knownRev)}
	status, _, raw, err := c.doRaw(ctx, http.MethodGet, wire.PathPrefix+"/policies/"+name, nil, headers, nil)
	if err != nil {
		return nil, false, err
	}
	switch {
	case status == http.StatusNotModified:
		return nil, false, nil
	case status >= 400:
		return nil, false, decodeError(http.MethodGet, "/policies/"+name, status, raw)
	}
	var got policy.Policy
	if err := wire.Unmarshal(raw, &got); err != nil {
		return nil, false, fmt.Errorf("core: decode response: %w", err)
	}
	return &got, true, nil
}

// UpdatePolicy replaces policy content (board approval happens server-side).
func (c *Client) UpdatePolicy(ctx context.Context, p *policy.Policy) error {
	return c.do(ctx, http.MethodPut, "/policies/"+p.Name, p, nil, nil)
}

// DeletePolicy removes a policy.
func (c *Client) DeletePolicy(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/policies/"+name, nil, nil, nil)
}

// ListPolicies returns one page of stored policy names. Empty after
// starts at the beginning; limit<=0 uses the server default. Follow
// PolicyList.NextAfter until it comes back empty.
func (c *Client) ListPolicies(ctx context.Context, after string, limit int) (*wire.PolicyList, error) {
	q := url.Values{}
	if after != "" {
		q.Set("after", after)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/policies"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var list wire.PolicyList
	if err := c.do(ctx, http.MethodGet, path, nil, &list, nil); err != nil {
		return nil, err
	}
	return &list, nil
}

// WatchPolicy long-polls until the stored policy differs from the watched
// version (update, key mint, delete, recreate), or the window expires
// with Changed=false (re-arm with the same revision). sinceCreateID
// guards the delete+recreate case (Revision restarts at 1 on recreation);
// pass the known policy's CreateID, or 0 to compare revisions only. The
// effective window is additionally capped below the client's own request
// timeout so the poll completes as a response, not a transport error.
func (c *Client) WatchPolicy(ctx context.Context, name string, sinceRev, sinceCreateID uint64, window time.Duration) (*wire.WatchResponse, error) {
	if window <= 0 {
		window = defaultWatchWindow
	}
	// Cap below the HTTP client timeout unconditionally: with a 1 s
	// timeout, "timeout minus a second" would skip the cap entirely and
	// every poll would die as a transport error instead of re-arming.
	lim := c.timeout - time.Second
	if lim <= 0 {
		lim = c.timeout / 2
	}
	if window > lim {
		window = lim
	}
	path := "/policies/" + name + "/watch?rev=" + strconv.FormatUint(sinceRev, 10) +
		"&create_id=" + strconv.FormatUint(sinceCreateID, 10) +
		"&timeout_ms=" + strconv.FormatInt(window.Milliseconds(), 10)
	// Deliberately single-shot even when MaxRetries is set: the caller
	// owns the re-arm loop, and auto-retrying a rejected long-poll would
	// degenerate into a busy spin against the admission layer.
	var res wire.WatchResponse
	if err := c.doOnce(ctx, http.MethodGet, path, nil, &res, nil); err != nil {
		return nil, err
	}
	return &res, nil
}

// --- Secrets, batch ----------------------------------------------------------

// FetchSecrets retrieves secret values (Fig 12). tracker, when non-nil,
// receives the modelled network latency instead of sleeping.
func (c *Client) FetchSecrets(ctx context.Context, policyName string, names []string, tracker *simclock.Tracker) (map[string]string, error) {
	req := wire.FetchSecretsRequest{Names: names}
	var out wire.SecretsResponse
	if err := c.do(ctx, http.MethodPost, "/policies/"+policyName+"/secrets", req, &out, tracker); err != nil {
		return nil, err
	}
	return out.Secrets, nil
}

// Batch pipelines heterogeneous operations — secret fetches across
// policies, policy reads, tag pushes — in ONE round trip: under a
// WAN profile the whole batch costs a single modelled RTT where
// sequential calls pay one each (the Fig 12 collapse). Results come back
// in op order; ops fail independently via their Error field.
func (c *Client) Batch(ctx context.Context, ops []wire.BatchOp, tracker *simclock.Tracker) ([]wire.BatchResult, error) {
	var resp wire.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/batch", wire.BatchRequest{Ops: ops}, &resp, tracker); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(ops) {
		return nil, fmt.Errorf("core: batch returned %d results for %d ops", len(resp.Results), len(ops))
	}
	return resp.Results, nil
}

// --- Attestation and tags ----------------------------------------------------

// Attest submits application evidence and returns the released config.
func (c *Client) Attest(ctx context.Context, ev attest.Evidence, quotingKey []byte, tracker *simclock.Tracker) (*AppConfig, error) {
	var cfg AppConfig
	req := wire.AttestRequest{Evidence: ev, QuotingKey: quotingKey}
	if err := c.do(ctx, http.MethodPost, "/attest", req, &cfg, tracker); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// PushTag sends an expected-tag update for an attested session.
func (c *Client) PushTag(ctx context.Context, token string, tag fspf.Tag, tracker *simclock.Tracker) error {
	return c.do(ctx, http.MethodPost, "/tags", wire.TagPush{Token: token, Tag: tag}, nil, tracker)
}

// NotifyExit reports a clean exit with the final tag.
func (c *Client) NotifyExit(ctx context.Context, token string, tag fspf.Tag) error {
	return c.do(ctx, http.MethodPost, "/exit", wire.TagPush{Token: token, Tag: tag}, nil, nil)
}

// ReadTag fetches the stored expected tag for a service.
func (c *Client) ReadTag(ctx context.Context, policyName, serviceName string, tracker *simclock.Tracker) (string, error) {
	var out wire.TagResponse
	path := "/tags/" + policyName + "/" + serviceName
	if err := c.do(ctx, http.MethodGet, path, nil, &out, tracker); err != nil {
		return "", err
	}
	return out.Tag, nil
}

// reportBindsKey reports whether an attestation report's ReportData field
// binds the served public key (ReportData == SHA-256 of the key). The
// compare is constant-time (hmac.Equal): ReportData is authenticator
// material, and a variable-time bytes.Equal would leak, through response
// timing, how many leading bytes of the expected hash a forged report
// matched — the classic byte-at-a-time forgery oracle. Unequal lengths
// compare unequal.
func reportBindsKey(reportData []byte, publicKey []byte) bool {
	keyHash := attest.KeyHash(publicKey)
	return hmac.Equal(reportData, keyHash[:])
}

// AttestationDoc is the explicit-attestation bundle (§IV-B): the IAS report
// binding the instance identity key to the PALÆMON MRE.
type AttestationDoc = wire.AttestationDoc

// Attestation fetches the explicit-attestation document.
func (c *Client) Attestation(ctx context.Context) (*AttestationDoc, error) {
	var doc AttestationDoc
	if err := c.do(ctx, http.MethodGet, "/attestation", nil, &doc, nil); err != nil {
		return nil, err
	}
	return &doc, nil
}

// VerifyInstance performs explicit attestation (§IV-B): fetch the report,
// verify the IAS signature, check the MRE against the expected set, then
// challenge the instance to prove possession of the reported key.
func (c *Client) VerifyInstance(ctx context.Context, iasPub []byte, expectedMREs []string) error {
	doc, err := c.Attestation(ctx)
	if err != nil {
		return err
	}
	if doc.Report == nil {
		return errors.New("core: instance offers no attestation report")
	}
	if err := ias.VerifyReport(*doc.Report, iasPub); err != nil {
		return fmt.Errorf("core: instance report: %w", err)
	}
	if doc.Report.Status != ias.StatusOK {
		return fmt.Errorf("core: instance platform status %s", doc.Report.Status)
	}
	mreOK := false
	for _, m := range expectedMREs {
		if doc.MRE == m {
			mreOK = true
			break
		}
	}
	if !mreOK {
		return fmt.Errorf("core: instance MRE %s not in expected set", doc.MRE)
	}
	// The report must bind the served public key.
	if !reportBindsKey(doc.Report.ReportData, doc.PublicKey) {
		return errors.New("core: report does not bind the instance key")
	}
	// Prove liveness/possession.
	ch, err := attest.NewChallenge()
	if err != nil {
		return err
	}
	var resp attest.Response
	if err := c.do(ctx, http.MethodPost, "/challenge", wire.ChallengeRequest{Challenge: ch}, &resp, nil); err != nil {
		return err
	}
	if err := attest.VerifyResponse(ch, resp, doc.PublicKey, "palaemon-instance"); err != nil {
		return fmt.Errorf("core: instance challenge: %w", err)
	}
	return nil
}
