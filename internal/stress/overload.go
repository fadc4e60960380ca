package stress

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"palaemon/internal/core"
	"palaemon/internal/obs"
	"palaemon/internal/wire"
)

// This file holds the overload scenarios behind the admission-control
// layer (core/admission.go, DESIGN.md §10): an overload storm — one
// tenant flooding /v2/batch while well-behaved tenants must keep their
// latency SLO — and a slow-loris scenario exercising the server's request
// read timeout. Both surface per-tenant accept/reject/latency accounting.

// OverloadOptions shapes one RunOverloadStorm.
type OverloadOptions struct {
	// HonestTenants is the number of well-behaved stakeholders (default 3).
	HonestTenants int
	// HonestRequests is the number of paced batch requests each honest
	// tenant issues (default 40).
	HonestRequests int
	// HonestPause is the pacing between an honest tenant's requests
	// (default 5ms — far below any sane rate limit).
	HonestPause time.Duration
	// FloodWorkers is the flooding tenant's concurrency (default 4); all
	// workers share ONE certificate identity, so the admission layer sees
	// one tenant however many connections it opens. Negative disables the
	// flood entirely — the uncontended-baseline shape.
	FloodWorkers int
	// BatchOps is the number of ops per batch request (default 4).
	BatchOps int
	// Secrets is the number of random secrets per policy (default 8).
	Secrets int
	// Retries is the honest tenants' client-side retry budget
	// (default 3); the flooder never retries — it measures raw rejection.
	Retries int
}

func (o *OverloadOptions) defaults() {
	if o.HonestTenants <= 0 {
		o.HonestTenants = 3
	}
	if o.HonestRequests <= 0 {
		o.HonestRequests = 40
	}
	if o.HonestPause <= 0 {
		o.HonestPause = 5 * time.Millisecond
	}
	if o.FloodWorkers == 0 {
		o.FloodWorkers = 4
	}
	if o.BatchOps <= 0 {
		o.BatchOps = 4
	}
	if o.Secrets <= 0 {
		o.Secrets = 8
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
}

// TenantOutcome is one tenant's client-side view of the storm.
type TenantOutcome struct {
	// Tenant labels the stakeholder ("flood" or "honest-N").
	Tenant string
	// Accepted counts requests that completed successfully.
	Accepted int
	// Rejected counts requests refused with resource_exhausted (for
	// honest tenants: refused even after the retry budget).
	Rejected int
	// OtherErrors counts failures that were neither success nor an
	// admission rejection.
	OtherErrors int
	// P50/P99/Max come from the server-side latency histogram for this
	// tenant on the batch route (palaemon_request_seconds): every request
	// the server saw, rejections included — retried attempts count
	// individually, unlike a client-side stopwatch around the retry loop.
	// Max is exact (tracked alongside the buckets); the percentiles are
	// bucket-interpolated.
	P50, P99, Max time.Duration
}

// OverloadReport is the outcome of one RunOverloadStorm.
type OverloadReport struct {
	// Tenants holds every tenant's client-side outcome, flooder included.
	Tenants []TenantOutcome
	// Server is the admission layer's own per-tenant accounting, keyed by
	// certificate identity.
	Server map[core.ClientID]core.AdmissionStats
	// Labels maps tenant identities back to scenario names for rendering.
	Labels map[core.ClientID]string
	// Duration is the wall-clock time of the storm.
	Duration time.Duration
}

// Honest returns the honest tenants' outcomes (everything but "flood").
func (r OverloadReport) Honest() []TenantOutcome {
	var out []TenantOutcome
	for _, t := range r.Tenants {
		if t.Tenant != "flood" {
			out = append(out, t)
		}
	}
	return out
}

// Flood returns the flooding tenant's outcome.
func (r OverloadReport) Flood() TenantOutcome {
	for _, t := range r.Tenants {
		if t.Tenant == "flood" {
			return t
		}
	}
	return TenantOutcome{}
}

// String renders the report for harness logs and the benchmark artifact.
func (r OverloadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload storm: %d tenants, %v\n", len(r.Tenants), r.Duration.Round(time.Millisecond))
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-10s accepted=%-6d rejected=%-6d other=%-4d p50=%-10v p99=%-10v max=%v\n",
			t.Tenant, t.Accepted, t.Rejected, t.OtherErrors,
			t.P50.Round(time.Microsecond), t.P99.Round(time.Microsecond), t.Max.Round(time.Microsecond))
	}
	b.WriteString("server-side admission accounting:\n")
	b.WriteString(core.FormatAdmissionStats(r.Server, func(id core.ClientID) string { return r.Labels[id] }))
	return b.String()
}

// isAdmissionReject reports a resource_exhausted refusal.
func isAdmissionReject(err error) bool {
	return errors.Is(err, core.ErrResourceExhausted)
}

// RunOverloadStorm drives the storm: HonestTenants well-behaved
// stakeholders pace batch-fetch requests while one flooding tenant
// hammers /v2/batch from FloodWorkers goroutines with no pacing and no
// retries. The harness must have been booted with Options.Limits (or the
// flood simply saturates the instance) and with Options.Obs: the
// per-tenant latency figures come from the server's request histograms,
// not a client-side stopwatch. The flood stops when the last honest
// tenant finishes.
func (h *Harness) RunOverloadStorm(ctx context.Context, opts OverloadOptions) (OverloadReport, error) {
	opts.defaults()
	rep := OverloadReport{Labels: make(map[core.ClientID]string)}
	if h.Obs == nil {
		return rep, errors.New("stress: RunOverloadStorm requires Options.Obs (latency comes from the server histograms)")
	}

	// Untimed setup: one policy per tenant, flooder included.
	type tenant struct {
		name string
		s    *Stakeholder
		cli  *core.Client
		ops  []wire.BatchOp
	}
	mk := func(name string, retries int) (*tenant, error) {
		s, err := h.NewStakeholder(name)
		if err != nil {
			return nil, err
		}
		// A dedicated client with the scenario's retry policy, sharing the
		// stakeholder's certificate identity.
		cli := core.NewClient(core.ClientOptions{
			BaseURL:     h.Server.URL(),
			Roots:       h.Authority.Root().Pool(),
			Certificate: s.Cert,
			Timeout:     30 * time.Second,
			MaxRetries:  retries,
		})
		if err := s.Client.CreatePolicy(ctx, h.secretsPolicy("storm-"+name, opts.Secrets)); err != nil {
			return nil, fmt.Errorf("stress: create storm-%s: %w", name, err)
		}
		ops := make([]wire.BatchOp, opts.BatchOps)
		for i := range ops {
			ops[i] = wire.BatchOp{Op: wire.OpFetchSecrets, Policy: "storm-" + name}
		}
		rep.Labels[s.ID] = name
		return &tenant{name: name, s: s, cli: cli, ops: ops}, nil
	}

	flood, err := mk("flood", 0)
	if err != nil {
		return rep, err
	}
	honest := make([]*tenant, opts.HonestTenants)
	for i := range honest {
		if honest[i], err = mk(fmt.Sprintf("honest-%d", i), opts.Retries); err != nil {
			return rep, err
		}
	}

	// The storm. Flood workers run until the honest tenants are done.
	// Client-side accounting covers outcomes only; latency lives in the
	// server's histograms.
	type outcome struct {
		accepted, rejected, other int
	}
	stormCtx, stopFlood := context.WithCancel(ctx)
	defer stopFlood()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		outcomes  = make(map[string]*outcome)
		firstErr  error
		recordErr = func(err error) {
			mu.Lock()
			if firstErr == nil && err != nil {
				firstErr = err
			}
			mu.Unlock()
		}
	)
	record := func(name string, err error) {
		mu.Lock()
		defer mu.Unlock()
		o := outcomes[name]
		if o == nil {
			o = &outcome{}
			outcomes[name] = o
		}
		switch {
		case err == nil:
			o.accepted++
		case isAdmissionReject(err):
			o.rejected++
		default:
			o.other++
		}
	}

	start := time.Now()
	for w := 0; w < opts.FloodWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stormCtx.Err() == nil {
				_, err := flood.cli.Batch(stormCtx, flood.ops, nil)
				if stormCtx.Err() != nil {
					return
				}
				record("flood", err)
			}
		}()
	}
	var honestWG sync.WaitGroup
	for _, t := range honest {
		honestWG.Add(1)
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			defer honestWG.Done()
			for i := 0; i < opts.HonestRequests; i++ {
				if ctx.Err() != nil {
					recordErr(ctx.Err())
					return
				}
				_, err := t.cli.Batch(ctx, t.ops, nil)
				record(t.name, err)
				time.Sleep(opts.HonestPause)
			}
		}(t)
	}
	honestWG.Wait()
	stopFlood()
	wg.Wait()
	rep.Duration = time.Since(start)
	rep.Server = h.Server.AdmissionStats()

	// Render outcomes in a stable order: honest tenants first, flood last.
	// Latency comes from the server-edge histogram for each tenant's batch
	// route series — the single source the /metrics endpoint also serves.
	idByName := make(map[string]core.ClientID, len(rep.Labels))
	for id, name := range rep.Labels {
		idByName[name] = id
	}
	names := make([]string, 0, len(outcomes))
	for n := range outcomes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o := outcomes[n]
		t := TenantOutcome{Tenant: n, Accepted: o.accepted, Rejected: o.rejected, OtherErrors: o.other}
		hist := h.Obs.Metrics.Histogram("palaemon_request_seconds",
			obs.L("route", wire.PathPrefix+"/batch"), obs.L("tenant", idByName[n].Short()))
		if hist.Count() > 0 {
			t.P50 = hist.Quantile(0.50)
			t.P99 = hist.Quantile(0.99)
			t.Max = hist.Max()
		}
		rep.Tenants = append(rep.Tenants, t)
	}

	// Untimed cleanup. The flooder's own rate bucket is drained by design,
	// so its delete honors the Retry-After hint until admitted.
	all := append([]*tenant{flood}, honest...)
	for _, t := range all {
		var derr error
		for attempt := 0; attempt < 100; attempt++ {
			if derr = t.s.Client.DeletePolicy(ctx, "storm-"+t.name); derr == nil || !core.Retryable(derr) {
				break
			}
			wait := core.RetryAfter(derr)
			if wait <= 0 {
				wait = 20 * time.Millisecond
			}
			time.Sleep(wait)
		}
		if derr != nil && ctx.Err() == nil {
			recordErr(fmt.Errorf("stress: delete storm-%s: %w", t.name, derr))
		}
		t.cli.CloseIdle()
		t.s.Client.CloseIdle()
	}
	return rep, firstErr
}

// --- Slow loris ---------------------------------------------------------------

// SlowLorisOptions shapes one RunSlowLoris.
type SlowLorisOptions struct {
	// Connections is the number of loris connections held open
	// (default 8).
	Connections int
	// DripInterval is the pause between single-byte body writes
	// (default 200ms). The attack succeeds against a server without a
	// request read timeout: each connection trickles forever.
	DripInterval time.Duration
	// MaxHold bounds how long the scenario waits for the server to reap a
	// connection before declaring the attack successful (default 30s; set
	// it a few seconds above the harness's Options.ReadTimeout).
	MaxHold time.Duration
	// HonestProbes is the number of paced control requests issued by an
	// honest client while the loris connections hang (default 10).
	HonestProbes int
}

func (o *SlowLorisOptions) defaults() {
	if o.Connections <= 0 {
		o.Connections = 8
	}
	if o.DripInterval <= 0 {
		o.DripInterval = 200 * time.Millisecond
	}
	if o.MaxHold <= 0 {
		o.MaxHold = 30 * time.Second
	}
	if o.HonestProbes <= 0 {
		o.HonestProbes = 10
	}
}

// SlowLorisReport is the outcome of one RunSlowLoris.
type SlowLorisReport struct {
	// Connections echoes the attack width.
	Connections int
	// Reaped counts loris connections the server closed.
	Reaped int
	// Survived counts connections still alive after MaxHold — nonzero
	// means the slow-loris defense failed.
	Survived int
	// MaxReapTime is the slowest observed reap.
	MaxReapTime time.Duration
	// HonestOK / HonestFailed count the control requests that succeeded /
	// failed while the attack ran.
	HonestOK, HonestFailed int
}

// String renders the report.
func (r SlowLorisReport) String() string {
	return fmt.Sprintf(
		"slow loris: %d connections, reaped=%d survived=%d max-reap=%v; honest ok=%d failed=%d",
		r.Connections, r.Reaped, r.Survived, r.MaxReapTime.Round(time.Millisecond),
		r.HonestOK, r.HonestFailed)
}

// RunSlowLoris opens raw TLS connections that send complete headers
// declaring a large body, then drip one body byte per DripInterval — the
// classic slow-loris shape the server's ReadTimeout must reap. An honest
// client issues control requests throughout; the attack must not starve
// it. Boot the harness with a short Options.ReadTimeout (e.g. 2s) to keep
// the scenario fast.
func (h *Harness) RunSlowLoris(ctx context.Context, opts SlowLorisOptions) (SlowLorisReport, error) {
	opts.defaults()
	rep := SlowLorisReport{Connections: opts.Connections}

	s, err := h.NewStakeholder("loris-honest")
	if err != nil {
		return rep, err
	}
	defer s.Client.CloseIdle()
	if err := s.Client.CreatePolicy(ctx, h.secretsPolicy("loris-pol", 4)); err != nil {
		return rep, fmt.Errorf("stress: create loris-pol: %w", err)
	}

	addr := strings.TrimPrefix(h.Server.URL(), "https://")
	tlsCfg := &tls.Config{MinVersion: tls.VersionTLS13, RootCAs: h.Authority.Root().Pool(), ServerName: "127.0.0.1"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < opts.Connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			conn, err := tls.Dial("tcp", addr, tlsCfg)
			if err != nil {
				return // dial refused counts as neither reaped nor survived
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(opts.MaxHold))
			// Complete headers, enormous declared body: the server commits
			// a handler... unless ReadTimeout reaps the trickle first.
			_, err = fmt.Fprintf(conn, "POST /v2/batch HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n", addr)
			for err == nil && time.Since(start) < opts.MaxHold {
				time.Sleep(opts.DripInterval)
				if _, err = conn.Write([]byte("{")); err != nil {
					break
				}
				// A response or a closed connection both mean the server
				// gave up on this request; a read deadline in the past turns
				// the check non-blocking-ish via the outer SetDeadline.
				_ = conn.SetReadDeadline(time.Now().Add(time.Millisecond))
				if _, rerr := bufio.NewReader(conn).Peek(1); rerr != nil {
					var nerr net.Error
					if errors.As(rerr, &nerr) && nerr.Timeout() {
						continue // no answer yet: still being tolerated
					}
					err = rerr // closed / reset: reaped
				} else {
					err = errors.New("server answered") // 408-style reply: reaped
				}
			}
			held := time.Since(start)
			mu.Lock()
			if err != nil {
				rep.Reaped++
				if held > rep.MaxReapTime {
					rep.MaxReapTime = held
				}
			} else {
				rep.Survived++
			}
			mu.Unlock()
		}()
	}

	// Honest control traffic while the lorises hang.
	probePause := opts.DripInterval
	for p := 0; p < opts.HonestProbes; p++ {
		if ctx.Err() != nil {
			break
		}
		if _, err := s.Client.FetchSecrets(ctx, "loris-pol", nil, nil); err != nil {
			rep.HonestFailed++
		} else {
			rep.HonestOK++
		}
		time.Sleep(probePause)
	}
	wg.Wait()

	if err := s.Client.DeletePolicy(ctx, "loris-pol"); err != nil && ctx.Err() == nil {
		return rep, fmt.Errorf("stress: delete loris-pol: %w", err)
	}
	return rep, nil
}
