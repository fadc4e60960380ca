package core

import (
	"context"
	"encoding/hex"
	"errors"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/obs"
)

// This file is the core's observability wiring (DESIGN.md §11): the
// server-edge middleware emitting one canonical log line plus RED metrics
// per request, the scrape-time collectors exposing the instance's
// existing accounting (CacheStats, AdmissionStats, inflight, DB epoch),
// and the instrumentation helpers the policy-mutation and attestation ops
// call to log and audit security-relevant outcomes.

// Metric families. Kept as constants so DESIGN.md's table, the stress
// assertions and the handlers cannot drift apart.
const (
	metricRequests       = "palaemon_requests_total"
	metricRequestErrors  = "palaemon_request_errors_total"
	metricRequestSeconds = "palaemon_request_seconds"
	metricAttests        = "palaemon_attests_total"
	metricMutations      = "palaemon_policy_mutations_total"
)

// Short returns the tenant label for metrics, logs and audit records: the
// first 8 hex characters of the certificate fingerprint. The zero ID (no
// client certificate) renders as "anon".
func (id ClientID) Short() string {
	if id == (ClientID{}) {
		return "anon"
	}
	return hex.EncodeToString(id[:4])
}

// registerInstanceCollectors exposes the instance's in-process accounting
// through the registry without double counting: the cache and DB counters
// are read at scrape time from the same structs tests use.
func registerInstanceCollectors(reg *obs.Registry, i *Instance) {
	reg.RegisterCollector(obs.CollectorFunc(func() []obs.Sample {
		cs := i.CacheStats()
		i.inflightMu.Lock()
		inflight := i.inflight
		i.inflightMu.Unlock()
		auditSeq, _ := i.obs.Audit.Head()
		return []obs.Sample{
			{Name: "palaemon_policy_cache_hits_total", Type: "counter", Help: "Policy cache hits.", Value: float64(cs.Hits)},
			{Name: "palaemon_policy_cache_misses_total", Type: "counter", Help: "Policy cache misses.", Value: float64(cs.Misses)},
			{Name: "palaemon_policy_cache_invalidations_total", Type: "counter", Help: "Policy cache invalidations.", Value: float64(cs.Invalidations)},
			{Name: "palaemon_db_reads_total", Type: "counter", Help: "Database reads on the policy read path.", Value: float64(cs.DBReads)},
			{Name: "palaemon_db_seq", Type: "gauge", Help: "Database commit sequence.", Value: float64(cs.DBSeq)},
			{Name: "palaemon_inflight_requests", Type: "gauge", Help: "Requests inside the Fig 6 drain window.", Value: float64(inflight)},
			{Name: "palaemon_audit_records_total", Type: "counter", Help: "Records appended to the audit chain.", Value: float64(auditSeq)},
		}
	}))
}

// registerAdmissionCollector exposes per-tenant admission accounting.
func registerAdmissionCollector(reg *obs.Registry, s *Server) {
	reg.RegisterCollector(obs.CollectorFunc(func() []obs.Sample {
		stats := s.AdmissionStats()
		out := make([]obs.Sample, 0, 3*len(stats))
		for id, st := range stats {
			tenant := id.Short()
			out = append(out,
				obs.Sample{Name: "palaemon_admission_accepted_total", Type: "counter", Help: "Requests admitted.", Labels: []obs.Label{obs.L("tenant", tenant)}, Value: float64(st.Accepted)},
				obs.Sample{Name: "palaemon_admission_rejected_total", Type: "counter", Help: "Requests rejected by admission control.", Labels: []obs.Label{obs.L("tenant", tenant), obs.L("reason", "rate")}, Value: float64(st.RejectedRate)},
				obs.Sample{Name: "palaemon_admission_rejected_total", Type: "counter", Labels: []obs.Label{obs.L("tenant", tenant), obs.L("reason", "gate")}, Value: float64(st.RejectedGate)},
			)
		}
		return out
	}))
}

// statusWriter captures status and byte count for the canonical request
// line. Unwrap keeps http.ResponseController (the per-request write
// deadline, the watch long-poll extension) working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// obsHandler is the server-edge middleware: it mints the request ID,
// resolves the tenant, threads both through the context, and — after the
// handler returns — emits the RED metrics and the one canonical log line
// per request. The route label is the ServeMux pattern that matched
// (available on the request after dispatch), so path parameters never
// explode metric cardinality.
func (s *Server) obsHandler(next http.Handler) http.Handler {
	m := s.obs.Metrics
	m.Describe(metricRequests, "counter", "Requests served, by route and tenant.")
	m.Describe(metricRequestErrors, "counter", "Error responses, by route and wire error code.")
	m.DescribeHistogram(metricRequestSeconds, "Request latency in seconds, by route and tenant.", nil)
	// Registry lookups sort labels and build a key per call; routes and
	// tenants are low-cardinality, so memoize the (route, tenant) series
	// and leave only two atomic ops on the steady-state hot path. Error
	// series stay uncached — errors are off the hot path by definition.
	type routeSeries struct {
		requests *obs.Counter
		seconds  *obs.Histogram
	}
	var series sync.Map
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rq := &obs.Request{ID: obs.NewRequestID(), Tenant: "anon"}
		// Hashed once here; admission and the handlers read it back through
		// clientID instead of hashing the certificate again.
		if id, ok := peerFingerprint(r); ok {
			rq.Peer, rq.HasPeer, rq.Tenant = id, true, id.Short()
		}
		r = r.WithContext(obs.WithRequest(r.Context(), rq))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		elapsed := time.Since(start)
		key := route + "\x1f" + rq.Tenant
		rs, ok := series.Load(key)
		if !ok {
			rs, _ = series.LoadOrStore(key, &routeSeries{
				requests: m.Counter(metricRequests, obs.L("route", route), obs.L("tenant", rq.Tenant)),
				seconds:  m.Histogram(metricRequestSeconds, obs.L("route", route), obs.L("tenant", rq.Tenant)),
			})
		}
		rs.(*routeSeries).requests.Inc()
		if code := rq.Code(); code != "" {
			m.Counter(metricRequestErrors, obs.L("route", route), obs.L("code", code)).Inc()
		}
		rs.(*routeSeries).seconds.Observe(elapsed)
		if s.obs.Log.Enabled(r.Context(), slog.LevelInfo) {
			s.obs.Log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("req", rq.ID),
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("tenant", rq.Tenant),
				slog.Int("status", sw.status),
				slog.String("code", rq.Code()),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", elapsed),
			)
		}
	})
}

// deniedOutcome classifies an op error for audit purposes: access and
// board denials are security-relevant refusals; everything else
// (validation, conflicts, overload) is operational noise the audit chain
// should not drown in.
func deniedOutcome(err error) bool {
	return errors.Is(err, ErrAccessDenied) || errors.Is(err, ErrBoardRejected)
}

// obsMutation records the outcome of one policy mutation: the op counter,
// a log line carrying the request ID, and — for successes and denials —
// an audit record chained into the tamper-evident log.
func (i *Instance) obsMutation(ctx context.Context, op string, client ClientID, policyName string, err error) {
	outcome := "ok"
	switch {
	case err == nil:
	case deniedOutcome(err):
		outcome = "denied"
	default:
		outcome = "error"
	}
	i.obs.Metrics.Counter(metricMutations, obs.L("op", op), obs.L("outcome", outcome)).Inc()

	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
	}
	if i.obs.Log.Enabled(ctx, level) {
		attrs := []slog.Attr{
			slog.String("req", obs.RequestID(ctx)),
			slog.String("tenant", client.Short()),
			slog.String("policy", policyName),
			slog.String("outcome", outcome),
		}
		if err != nil {
			attrs = append(attrs, slog.String("err", err.Error()))
		}
		i.obs.Log.LogAttrs(ctx, level, op, attrs...)
	}
	if err == nil || deniedOutcome(err) {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		_ = i.obs.Audit.Append(obs.AuditEvent{
			Event:     op,
			Outcome:   outcome,
			Tenant:    client.Short(),
			Policy:    policyName,
			Detail:    detail,
			RequestID: obs.RequestID(ctx),
		})
	}
}

// obsAttest records the outcome of one application attestation. Both
// outcomes are audited (§III: a stakeholder must be able to reconstruct
// which measurements were granted — or refused — configuration).
func (i *Instance) obsAttest(ctx context.Context, ev attest.Evidence, err error) {
	outcome := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrAttestation), errors.Is(err, ErrStrictRestart):
		outcome = "denied"
	default:
		outcome = "error"
	}
	i.obs.Metrics.Counter(metricAttests, obs.L("outcome", outcome)).Inc()

	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
	}
	if i.obs.Log.Enabled(ctx, level) {
		attrs := []slog.Attr{
			slog.String("req", obs.RequestID(ctx)),
			slog.String("policy", ev.PolicyName),
			slog.String("service", ev.ServiceName),
			slog.String("outcome", outcome),
		}
		if err != nil {
			attrs = append(attrs, slog.String("err", err.Error()))
		}
		i.obs.Log.LogAttrs(ctx, level, "attest", attrs...)
	}
	if outcome != "error" {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		_ = i.obs.Audit.Append(obs.AuditEvent{
			Event:     "attest",
			Outcome:   outcome,
			Policy:    ev.PolicyName,
			Service:   ev.ServiceName,
			Detail:    detail,
			RequestID: obs.RequestID(ctx),
		})
	}
}

// obsAdmissionReject audits one admission rejection (the metrics side is
// covered by the AdmissionStats collector). Only called when the server
// has an obs bundle.
func (s *Server) obsAdmissionReject(ctx context.Context, id ClientID, reason string) {
	_ = s.obs.Audit.Append(obs.AuditEvent{
		Event:     "admission.reject",
		Outcome:   "denied",
		Tenant:    id.Short(),
		Detail:    reason,
		RequestID: obs.RequestID(ctx),
	})
}
