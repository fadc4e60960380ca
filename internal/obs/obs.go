// Package obs is PALÆMON's zero-dependency observability core: structured
// request logging (log/slog), a metrics registry with atomic counters,
// gauges and fixed-bucket latency histograms exposed in Prometheus text
// format, a tamper-evident (hash-chained) audit log for security events,
// and a plain-HTTP ops listener serving /metrics, /healthz, /readyz and
// net/http/pprof.
//
// The package deliberately has no third-party dependencies: the serving
// stack must stay auditable end to end (the same argument DESIGN.md makes
// for the storage engine), and the paper's threat model extends to the
// operator — hence the audit chain, whose head a stakeholder can anchor
// externally to detect truncation.
package obs

import (
	"log/slog"
)

// Obs bundles the three observability planes one instance shares: the
// structured logger, the metrics registry, and the (optional) audit log.
// Core components receive a *Obs and must tolerate a nil Audit; a nil
// *Obs itself means "observability off" and callers normalise it with
// Nop before storing it.
type Obs struct {
	// Log receives structured events. Never nil after New/Nop.
	Log *slog.Logger
	// Metrics is the instance-wide registry. Never nil after New/Nop.
	Metrics *Registry
	// Audit is the hash-chained security-event log, nil when disabled.
	// AuditLog methods are nil-receiver-safe, so call sites never guard.
	Audit *AuditLog
}

// New builds a bundle around the given slog handler (nil = discard) with
// a fresh registry and no audit log.
func New(h slog.Handler) *Obs {
	if h == nil {
		h = slog.DiscardHandler
	}
	return &Obs{Log: slog.New(h), Metrics: NewRegistry()}
}

// Nop returns a bundle that swallows everything: discard logger, private
// registry, no audit. Used as the default so instrumentation points never
// nil-check the bundle itself.
func Nop() *Obs { return New(nil) }

// Or returns o, or a Nop bundle when o is nil. The idiom for components
// accepting an optional bundle: `obs := opts.Obs.Or()`.
func (o *Obs) Or() *Obs {
	if o == nil {
		return Nop()
	}
	return o
}
