package stress

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"palaemon/internal/core"
	"palaemon/internal/workloads/loadgen"
)

// OpStats aggregates latency samples for one operation kind.
type OpStats struct {
	// Count is the number of successful operations.
	Count int
	// Errors is the number of failed operations.
	Errors int
	// P50/P95/P99/Max are latency percentiles over successful operations.
	P50, P95, P99, Max time.Duration
	// Total is the summed latency (mean = Total/Count).
	Total time.Duration
}

// Mean returns the average latency.
func (s OpStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Report is the outcome of one workload run.
type Report struct {
	// Stakeholders is the driven concurrency.
	Stakeholders int
	// Ops counts successful operations across all kinds.
	Ops int
	// Errors counts failed operations.
	Errors int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// PerOp breaks the run down by operation kind.
	PerOp map[string]OpStats
	// Cache holds the instance's read-path cache and kvdb read counters
	// accumulated over this run (deltas, not process totals).
	Cache core.CacheStats
	// Requests is the server-edge RED accounting per route, read from the
	// observability registry; empty when the harness runs uninstrumented.
	Requests string
}

// Throughput is the aggregate successful-operation rate.
func (r Report) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// String renders a compact table for logs and benchmarks.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stakeholders=%d ops=%d errors=%d duration=%v throughput=%.0f op/s\n",
		r.Stakeholders, r.Ops, r.Errors, r.Duration.Round(time.Millisecond), r.Throughput())
	kinds := make([]string, 0, len(r.PerOp))
	for k := range r.PerOp {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := r.PerOp[k]
		fmt.Fprintf(&b, "  %-14s n=%-6d err=%-4d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v\n",
			k, s.Count, s.Errors, s.Mean().Round(time.Microsecond), s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
	if c := r.Cache; c.Hits+c.Misses > 0 || c.DBReads > 0 {
		fmt.Fprintf(&b, "  policy-cache   hits=%d misses=%d hit-rate=%.1f%% invalidations=%d db-reads=%d db-seq=%d\n",
			c.Hits, c.Misses, 100*c.HitRate(), c.Invalidations, c.DBReads, c.DBSeq)
	}
	b.WriteString(r.Requests)
	return b.String()
}

// requestSummary renders the server-edge request accounting (requests and
// errors per route, summed over tenants) from the observability registry.
// Empty when the harness runs uninstrumented — the client-side percentile
// tables above remain the only view then.
func (h *Harness) requestSummary() string {
	if h.Obs == nil {
		return ""
	}
	type agg struct{ requests, errors float64 }
	routes := map[string]*agg{}
	for _, s := range h.Obs.Metrics.Snapshot() {
		if s.Name != "palaemon_requests_total" && s.Name != "palaemon_request_errors_total" {
			continue
		}
		route := ""
		for _, l := range s.Labels {
			if l.Name == "route" {
				route = l.Value
			}
		}
		a := routes[route]
		if a == nil {
			a = &agg{}
			routes[route] = a
		}
		if s.Name == "palaemon_requests_total" {
			a.requests += s.Value
		} else {
			a.errors += s.Value
		}
	}
	names := make([]string, 0, len(routes))
	for n := range routes {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		a := routes[n]
		fmt.Fprintf(&b, "  server-route   %-28s requests=%-6.0f errors=%.0f\n", n, a.requests, a.errors)
	}
	return b.String()
}

// recorder collects latency samples from concurrent workers. Each worker
// owns a local sink (no contention on the hot path); sinks merge on Wait.
type recorder struct {
	mu    sync.Mutex
	sinks []*sink
}

// sink is one worker's private sample store.
type sink struct {
	samples map[string][]time.Duration
	errors  map[string]int
}

func (r *recorder) newSink() *sink {
	s := &sink{samples: make(map[string][]time.Duration), errors: make(map[string]int)}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
	return s
}

// observe times fn and records the sample under kind.
func (s *sink) observe(kind string, fn func() error) error {
	start := time.Now()
	err := fn()
	if err != nil {
		s.errors[kind]++
		return err
	}
	s.samples[kind] = append(s.samples[kind], time.Since(start))
	return nil
}

// report merges every sink into percentile statistics.
func (r *recorder) report(stakeholders int, wall time.Duration) Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := make(map[string][]time.Duration)
	errs := make(map[string]int)
	for _, s := range r.sinks {
		for k, v := range s.samples {
			merged[k] = append(merged[k], v...)
		}
		for k, n := range s.errors {
			errs[k] += n
		}
	}
	rep := Report{Stakeholders: stakeholders, Duration: wall, PerOp: make(map[string]OpStats)}
	for k, lat := range merged {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		st := OpStats{Count: len(lat), Errors: errs[k]}
		for _, d := range lat {
			st.Total += d
		}
		st.P50 = loadgen.Percentile(lat, 0.50)
		st.P95 = loadgen.Percentile(lat, 0.95)
		st.P99 = loadgen.Percentile(lat, 0.99)
		st.Max = lat[len(lat)-1]
		rep.Ops += st.Count
		rep.Errors += st.Errors
		rep.PerOp[k] = st
		delete(errs, k)
	}
	// Kinds that only ever failed still show up.
	for k, n := range errs {
		rep.Errors += n
		rep.PerOp[k] = OpStats{Errors: n}
	}
	return rep
}
