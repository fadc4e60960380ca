package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"palaemon/internal/wire"
)

// This file is the admission-control layer in front of every route
// (DESIGN.md §10): per-tenant token-bucket rate limits plus one bounded
// instance-wide concurrency gate, keyed by the stakeholder client identity
// (the certificate fingerprint every authenticated request already
// carries). The TMS must stay available to honest stakeholders even when
// others misbehave (the paper's Byzantine-stakeholder premise applied to
// resource consumption): one flooding tenant drains only its own bucket,
// and overload is rejected EARLY — before the handler touches the
// instance — with a resource_exhausted envelope that is retryable and
// carries a Retry-After hint the typed Client honors.

// Admission-layer sentinel errors. They live beside the instance sentinels
// in the errmap classification table, so admission rejections round-trip
// the wire exactly like instance errors do.
var (
	// ErrResourceExhausted reports an admission rejection: the tenant is
	// over its rate limit or the instance-wide concurrency gate is full.
	ErrResourceExhausted = errors.New("core: request rejected by admission control")
	// ErrPayloadTooLarge reports a request body exceeding the wire cap.
	ErrPayloadTooLarge = errors.New("core: request body exceeds the 8 MiB wire cap")
)

// AdmissionLimits configures the overload-safety layer. The zero value of
// any field means "no limit of that kind"; a nil *AdmissionLimits on
// ServerOptions disables the layer entirely.
type AdmissionLimits struct {
	// TenantRate is the sustained request rate (requests/second) each
	// tenant may issue against the server. 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket capacity: how many requests a tenant
	// may issue back-to-back after an idle period. Defaults to
	// max(1, ceil(TenantRate)) when TenantRate is set.
	TenantBurst int
	// MaxConcurrent bounds the requests executing at once across ALL
	// tenants (the instance-wide gate). 0 disables the gate.
	MaxConcurrent int
	// MaxWait bounds how long an admitted request may queue for a
	// concurrency slot before being rejected — the bounded queue that
	// turns overload into fast, honest rejections instead of unbounded
	// latency. Defaults to 100ms when MaxConcurrent is set.
	MaxWait time.Duration
	// MaxTenants caps the tracked bucket table so probing with endless
	// fresh identities cannot grow it without bound (default 4096; idle
	// full buckets are evicted first).
	MaxTenants int
}

func (l *AdmissionLimits) defaults() {
	if l.TenantRate > 0 && l.TenantBurst <= 0 {
		l.TenantBurst = int(l.TenantRate + 0.999)
		if l.TenantBurst < 1 {
			l.TenantBurst = 1
		}
	}
	if l.MaxConcurrent > 0 && l.MaxWait <= 0 {
		l.MaxWait = 100 * time.Millisecond
	}
	if l.MaxTenants <= 0 {
		l.MaxTenants = 4096
	}
}

// AdmissionStats is one tenant's admission accounting (monotonic counters
// since server start).
type AdmissionStats struct {
	// Accepted counts requests that passed both the bucket and the gate.
	Accepted uint64
	// RejectedRate counts rejections by the tenant's token bucket.
	RejectedRate uint64
	// RejectedGate counts rejections by the instance-wide concurrency
	// gate (queue wait exceeded MaxWait).
	RejectedGate uint64
}

// Rejected is the total rejection count.
func (s AdmissionStats) Rejected() uint64 { return s.RejectedRate + s.RejectedGate }

// tenantBucket is one tenant's token bucket plus its accounting. Tokens
// refill lazily at TenantRate, capped at TenantBurst. Every field is
// owned by the admission controller's mutex (the guardedby annotations
// are verified by palaemonvet, DESIGN.md §12).
type tenantBucket struct {
	tokens float64        // palaemon:guardedby mu
	last   time.Time      // palaemon:guardedby mu
	stats  AdmissionStats // palaemon:guardedby mu
}

// admission is the controller: the bucket table and the concurrency gate.
type admission struct {
	limits AdmissionLimits

	mu      sync.Mutex
	buckets map[ClientID]*tenantBucket // palaemon:guardedby mu

	// slots is the instance-wide gate; nil when MaxConcurrent is 0.
	slots chan struct{}
}

func newAdmission(limits AdmissionLimits) *admission {
	limits.defaults()
	a := &admission{limits: limits, buckets: make(map[ClientID]*tenantBucket)}
	if limits.MaxConcurrent > 0 {
		a.slots = make(chan struct{}, limits.MaxConcurrent)
	}
	return a
}

// bucketFor returns (creating if needed) the tenant's bucket; callers
// hold a.mu. Unauthenticated requests share the zero ClientID — anonymous
// traffic is one tenant, so it cannot multiply its budget by omitting the
// certificate.
//
// palaemon:locks mu
func (a *admission) bucketFor(id ClientID, now time.Time) *tenantBucket {
	b, ok := a.buckets[id]
	if ok {
		return b
	}
	if len(a.buckets) >= a.limits.MaxTenants {
		a.evictLocked()
	}
	b = &tenantBucket{tokens: float64(a.limits.TenantBurst), last: now}
	a.buckets[id] = b
	return b
}

// evictLocked reclaims bucket-table space: idle tenants (bucket fully
// refilled — they are indistinguishable from brand-new ones) go first;
// when every tenant is active, arbitrary entries go, which only resets an
// attacker's bucket to full — it cannot grant more than a fresh identity
// would get anyway. Callers hold a.mu.
//
// palaemon:locks mu
func (a *admission) evictLocked() {
	now := time.Now()
	burst := float64(a.limits.TenantBurst)
	for id, b := range a.buckets {
		a.refill(b, now)
		if a.limits.TenantRate <= 0 || b.tokens >= burst {
			delete(a.buckets, id)
		}
	}
	for id := range a.buckets {
		if len(a.buckets) < a.limits.MaxTenants {
			break
		}
		delete(a.buckets, id)
	}
}

// refill advances b's lazy token refill to now. Callers hold a.mu.
//
// palaemon:locks mu
func (a *admission) refill(b *tenantBucket, now time.Time) {
	if a.limits.TenantRate <= 0 {
		return
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed <= 0 {
		return
	}
	b.tokens += elapsed * a.limits.TenantRate
	if burst := float64(a.limits.TenantBurst); b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
}

// acquire admits one request for tenant id, returning the release the
// caller must defer. gated=false skips the concurrency gate (watch
// long-polls: they park for up to a minute and the instance already
// excludes them from drain accounting; holding a slot that long would let
// idle watchers starve real work) while still charging the rate bucket.
// A rejection returns a *wire.Error with CodeResourceExhausted,
// Retryable=true and the RetryAfterMS hint, plus the rejecting stage
// ("rate" or "gate") for the audit trail.
func (a *admission) acquire(ctx context.Context, id ClientID, gated bool) (release func(), reason string, werr *wire.Error) {
	now := time.Now()
	a.mu.Lock()
	b := a.bucketFor(id, now)
	if a.limits.TenantRate > 0 {
		a.refill(b, now)
		if b.tokens < 1 {
			b.stats.RejectedRate++
			// Hint: time until the bucket refills the missing fraction.
			wait := time.Duration((1 - b.tokens) / a.limits.TenantRate * float64(time.Second))
			a.mu.Unlock()
			return nil, "rate", resourceExhausted(wait, "tenant rate limit exceeded")
		}
		b.tokens--
	}
	a.mu.Unlock()

	if gated && a.slots != nil {
		select {
		case a.slots <- struct{}{}:
		default:
			// Gate full: wait bounded by MaxWait and the caller's context.
			timer := time.NewTimer(a.limits.MaxWait)
			select {
			case a.slots <- struct{}{}:
				timer.Stop()
			case <-timer.C:
				a.recordGateReject(id)
				return nil, "gate", resourceExhausted(a.limits.MaxWait, "instance concurrency gate is full")
			case <-ctx.Done():
				timer.Stop()
				a.recordGateReject(id)
				return nil, "gate", resourceExhausted(a.limits.MaxWait, "instance concurrency gate is full")
			}
		}
	}

	a.mu.Lock()
	// Re-fetch: the bucket may have been evicted while we queued.
	b = a.bucketFor(id, time.Now())
	b.stats.Accepted++
	a.mu.Unlock()

	if gated && a.slots != nil {
		return func() { <-a.slots }, "", nil
	}
	return func() {}, "", nil
}

func (a *admission) recordGateReject(id ClientID) {
	a.mu.Lock()
	a.bucketFor(id, time.Now()).stats.RejectedGate++
	a.mu.Unlock()
}

// resourceExhausted builds the rejection envelope with the retry hint.
func resourceExhausted(wait time.Duration, why string) *wire.Error {
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	e := wire.NewError(wire.CodeResourceExhausted, http.StatusTooManyRequests, true,
		fmt.Sprintf("%v: %s", ErrResourceExhausted, why))
	e.RetryAfterMS = int64(wait / time.Millisecond)
	if e.RetryAfterMS < 1 {
		e.RetryAfterMS = 1
	}
	return e
}

// stats snapshots every tracked tenant's counters.
func (a *admission) statsSnapshot() map[ClientID]AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[ClientID]AdmissionStats, len(a.buckets))
	for id, b := range a.buckets {
		out[id] = b.stats
	}
	return out
}

// AdmissionStats snapshots per-tenant admission accounting (nil when the
// server runs without limits). Keys are the certificate-fingerprint
// tenant identities; the zero ClientID aggregates unauthenticated
// traffic.
func (s *Server) AdmissionStats() map[ClientID]AdmissionStats {
	if s.adm == nil {
		return nil
	}
	return s.adm.statsSnapshot()
}

// admit wraps a route's handler with the admission check. Without limits
// it is a pass-through. The Retry-After header mirrors the envelope hint
// in whole seconds (rounded up) for generic HTTP tooling.
func (s *Server) admit(gated bool, h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id, _ := clientID(r) // zero ID = shared anonymous tenant
		release, reason, werr := s.adm.acquire(r.Context(), id, gated)
		if werr != nil {
			secs := (werr.RetryAfterMS + 999) / 1000
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprint(secs))
			writeWireErr(w, r, werr)
			if s.obs != nil {
				s.obsAdmissionReject(r.Context(), id, reason)
			}
			return
		}
		defer release()
		h(w, r)
	}
}

// FormatAdmissionStats renders per-tenant counters with stable ordering
// for logs and stress reports; resolve maps a tenant identity to a label
// (nil prints the fingerprint prefix).
func FormatAdmissionStats(stats map[ClientID]AdmissionStats, resolve func(ClientID) string) string {
	type row struct {
		label string
		s     AdmissionStats
	}
	rows := make([]row, 0, len(stats))
	for id, st := range stats {
		label := ""
		if resolve != nil {
			label = resolve(id)
		}
		if label == "" {
			label = fmt.Sprintf("%x", [32]byte(id))[:8]
		}
		rows = append(rows, row{label, st})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].label < rows[b].label })
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("  tenant %-12s accepted=%-7d rejected-rate=%-6d rejected-gate=%d\n",
			r.label, r.s.Accepted, r.s.RejectedRate, r.s.RejectedGate)
	}
	return out
}
