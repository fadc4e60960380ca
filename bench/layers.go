package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names a metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// perLayerMetrics is every per-layer metric, in the order of the table in
// README.md. TestBenchmarkJSONMatches keeps BENCHMARK.json equal to it.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"bench.latency_tail_ms", "ms"}, {"bench.latency_tail_q", "quantile"}, {"bench.samples", "count"},
	}
	for _, op := range opNames {
		defs = append(defs, metricDef{"bench.kind." + op + ".p50_ms", "ms"}, metricDef{"bench.kind." + op + ".p95_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"bench.gen_late_ms_p95", "ms"}, metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"fleet.route_ms", "ms"}, metricDef{"fleet.barrier_ms", "ms"},
		metricDef{"fleet.repl_lag_entries_p95", "count"}, metricDef{"fleet.repl_entries_per_write", "count"},
		metricDef{"fleet.barrier_degraded", "count"}, metricDef{"fleet.failover_ms", "ms"},
		metricDef{"core.client.codec_ms", "ms"}, metricDef{"wire.bytes_per_op", "B"},
		metricDef{"wire.codec_ms", "ms"}, metricDef{"core.client.conns_opened", "count"},
		metricDef{"core.server.edge_ms", "ms"}, metricDef{"core.transport_ms", "ms"}, metricDef{"core.server.handler_ms", "ms"},
	)
	for _, op := range opNames {
		defs = append(defs, metricDef{"core.instance." + op + "_ms", "ms"}, metricDef{"core.instance." + op + "_unexplained_ms", "ms"})
	}
	return append(defs,
		metricDef{"core.db_commits_per_op", "count"}, metricDef{"core.conflicts", "count"},
		metricDef{"core.policycache.hit_rate", "ratio"}, metricDef{"core.policycache.misses_per_op", "count"},
		metricDef{"core.policycache.invalidations_per_op", "count"},
		metricDef{"attest.verify_ms", "ms"}, metricDef{"sgx.quote_ms", "ms"},
		metricDef{"policy.decode_compile_ms", "ms"}, metricDef{"policy.validate_materialize_ms", "ms"},
		metricDef{"board.evaluate_ms", "ms"}, metricDef{"board.asks_per_op", "count"},
		metricDef{"kvdb.put_ms", "ms"}, metricDef{"kvdb.fsync_ms", "ms"}, metricDef{"kvdb.seal_chain_ms", "ms"}, metricDef{"kvdb.wal_kb_per_op", "KB"},
		metricDef{"obs.audit_append_ms", "ms"}, metricDef{"obs.audit_kb_per_op", "KB"}, metricDef{"obs.series", "count"},
		metricDef{"proc.cpu_ms_per_op", "ms"}, metricDef{"proc.gc_cycles", "count"}, metricDef{"proc.gc_cpu_pct", "%"}, metricDef{"proc.goroutines_end", "count"}, metricDef{"proc.rss_peak_mb", "MB"},
	)
}()

// tracedWindow is the traced run's window: a third of the measured one
// (10 s beside the protocol's 30 s), and at least a second.
func tracedWindow(window time.Duration) time.Duration {
	return max(window/3, time.Second)
}

// primaryOp is the operation most of a workload's visits start with; the
// edge ladder's single-valued metrics are reported for it.
func primaryOp(sp spec) int {
	kind := visitFetch
	for k, share := range sp.mix {
		if share > sp.mix[kind] {
			kind = visitKind(k)
		}
	}
	return [...]int{visitFetch: opFetch, visitAttest: opAttest, visitUpdate: opUpdate}[kind]
}

// leafUse is how often one operation reaches one leaf.
type leafUse struct {
	name  string
	count int
}

// leavesOf lists the leaves an instance operation reaches on a workload.
// Only leaves reached on every such operation are listed, so the sum can
// fall short of the operation (the rest is reported as unexplained) but
// not exceed it.
func leavesOf(sp spec, op int) []leafUse {
	var board []leafUse
	if sp.governed {
		board = []leafUse{{"board.evaluate", 1}}
	}
	switch op {
	case opFetch:
		return board
	case opAttest:
		return []leafUse{{"attest.verify", 1}, {"kvdb.put", 1}, {"obs.audit_append", 1}}
	case opPushTag, opNotifyExit:
		return []leafUse{{"kvdb.put", 1}}
	}
	leaves := append([]leafUse{{"policy.validate_materialize", 1}, {"kvdb.put", 1}}, board...)
	if sp.fleet {
		// Every visit is an update, so every update finds the cache entry
		// its predecessor invalidated; fleet shards keep no audit chain.
		return append(leaves, leafUse{"policy.decode_compile", 1})
	}
	return append(leaves, leafUse{"obs.audit_append", 1})
}

// spanTable is the traced run's spans by name, in ascending milliseconds.
type spanTable struct {
	dur, self map[string][]float64
}

func (t spanTable) p50(name string) float64     { return median(t.dur[name]) }
func (t spanTable) selfP50(name string) float64 { return median(t.self[name]) }

func (t spanTable) mean(name string) float64 {
	sum := 0.0
	for _, v := range t.dur[name] {
		sum += v
	}
	return sum / float64(max(len(t.dur[name]), 1))
}

// tabulate groups every client's spans by name. A roundtrip is filed under
// "roundtrip/<parent>" so each operation keeps its own, and a leaf also
// under "<leaf>@<op>" for the operation whose leaf/<op> span holds it: a
// put of a policy and a put of a tag record are not the same put.
func tabulate(recs []*recorder) spanTable {
	t := spanTable{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, r := range recs {
		var spans []span
		r.each(func(s span) { spans = append(spans, s) })
		names := make(map[int32]string, len(spans))
		for _, s := range spans {
			names[s.id] = s.name
		}
		for i := range spans {
			if spans[i].name == "roundtrip" {
				spans[i].name = "roundtrip/" + names[spans[i].parent]
			}
		}
		for _, s := range spans {
			t.dur[s.name] = append(t.dur[s.name], float64(s.dur())/1e6)
			if op, ok := strings.CutPrefix(names[s.parent], "leaf/"); ok {
				t.dur[s.name+"@"+op] = append(t.dur[s.name+"@"+op], float64(s.dur())/1e6)
			}
		}
		for name, selfs := range selfTimes(spans) {
			for _, ns := range selfs {
				t.self[name] = append(t.self[name], float64(ns)/1e6)
			}
		}
	}
	for _, m := range []map[string][]float64{t.dur, t.self} {
		for _, v := range m {
			sort.Float64s(v)
		}
	}
	return t
}

// tracedRun is step (5): a fresh deployment with the same seed, spans kept
// in memory, visits rotating over the three rungs. It fills the per-layer
// metrics that need spans and prints the two ladders into the result.
func tracedRun(ctx context.Context, sp spec, cfg runConfig, r *result, traceFile string) {
	layer := func(name string, v float64) { r.PerLayer[name] = metric{v, r.PerLayer[name].Unit} }
	e, err := setup(ctx, sp, cfg, true)
	if err != nil {
		r.fail("traced setup: %v", err)
		return
	}
	// Warm every rung with the recorders off, so that scratch stores and
	// the standalone instance are as settled as the deployment.
	e.drive(ctx, cfg.warmup, true)
	for _, c := range e.clients {
		if c.firstErr != nil {
			r.fail("traced warm-up, client %d: %v", c.idx, c.firstErr)
		}
		c.resetSamples()
	}

	primed := e.counters()
	t0 := time.Now()
	recs := make([]*recorder, len(e.clients))
	for i, c := range e.clients {
		c.rec.on, c.rec.t0 = true, t0
		c.rec.conns, c.rec.reqBytes, c.rec.respBytes = 0, 0, 0
		recs[i] = c.rec
	}
	stopLag := e.sampleLag()
	e.drive(ctx, tracedWindow(cfg.window), true)
	lag := stopLag()
	drained := e.counters()
	for _, c := range e.clients {
		c.rec.on = false
	}
	e.collect(r)
	for _, err := range e.check(ctx) {
		r.fail("traced check: %v", err)
	}
	edgeLat := e.samples(func(c *client) *samples { return &c.lat })
	if err := e.teardown(); err != nil {
		r.fail("traced teardown: %v", err)
	}
	if traceFile != "" {
		if err := writeTrace(traceFile, recs); err != nil {
			r.fail("write trace: %v", err)
		}
	}

	t := tabulate(recs)
	if p50 := r.EndToEnd["latency_p50_ms"].Value; p50 > 0 {
		layer("bench.trace_overhead_pct", 100*(median(edgeLat)-p50)/p50)
	}
	var conns, wireBytes float64
	for _, rec := range recs {
		conns += float64(rec.conns)
		wireBytes += float64(rec.reqBytes + rec.respBytes)
	}
	layer("core.client.conns_opened", conns)
	// Bytes per visit, over the edge visits whose requests the timing
	// transport saw (on a fleet, those of the direct client).
	traced := 0
	for _, rec := range recs {
		seen := int32(0)
		rec.each(func(s span) {
			if s.name == "roundtrip" && s.visit != seen {
				seen = s.visit
				traced++
			}
		})
	}
	if traced > 0 {
		layer("wire.bytes_per_op", wireBytes/float64(traced))
	}
	if len(lag) > 0 {
		layer("fleet.repl_lag_entries_p95", percentile(lag, 0.95))
	}
	for name, span := range map[string]string{
		"attest.verify_ms": "attest.verify", "sgx.quote_ms": "sgx.quote",
		"policy.decode_compile_ms": "policy.decode_compile", "policy.validate_materialize_ms": "policy.validate_materialize",
		"board.evaluate_ms": "board.evaluate", "kvdb.put_ms": "kvdb.put", "kvdb.fsync_ms": "kvdb.fsync",
		"wire.codec_ms": "wire.codec", "obs.audit_append_ms": "obs.audit_append",
	} {
		layer(name, t.p50(span))
	}
	// A put's self time is what is left of it outside write and fsync:
	// encoding, sealing and chaining the record.
	layer("kvdb.seal_chain_ms", t.selfP50("kvdb.put"))

	var route, barrier float64
	if sp.fleet {
		route = t.p50(fleetClientSpan) - t.p50(clientSpan[opUpdate])
		barrier = t.p50(instSpan[opUpdate]) - t.p50(soloSpan)
		layer("fleet.route_ms", route)
		layer("fleet.barrier_ms", barrier)
		r.Decomposition = append(r.Decomposition,
			fmt.Sprintf("fleet.route_ms %.4f = %s p50 %.4f - %s p50 %.4f", route, fleetClientSpan, t.p50(fleetClientSpan), clientSpan[opUpdate], t.p50(clientSpan[opUpdate])),
			fmt.Sprintf("fleet.barrier_ms %.4f = %s p50 %.4f - %s p50 %.4f", barrier, instSpan[opUpdate], t.p50(instSpan[opUpdate]), soloSpan, t.p50(soloSpan)))
	}

	// The two ladders, per operation the workload issues. Nested spans give
	// self times; where spans cannot nest (a client span and the server's
	// histogram, an edge visit and an instance visit) the step is a
	// difference of medians of separate visits, both operands printed.
	for op, name := range opNames {
		if len(t.dur[clientSpan[op]]) == 0 {
			continue
		}
		var edge float64
		if n := drained.edgeCount[op] - primed.edgeCount[op]; n > 0 {
			edge = 1000 * (drained.edgeSum[op] - primed.edgeSum[op]) / n
		}
		// The server's histogram yields a mean, so the two steps that cross
		// it subtract means; a median minus a mean would mix in the tail.
		opP50, codec := t.p50(clientSpan[op]), t.selfP50(clientSpan[op])
		roundtrip, inst := t.mean("roundtrip/"+clientSpan[op]), t.mean(instSpan[op])
		transport, handler := roundtrip-edge, edge-inst
		var routing string
		if sp.fleet {
			routing = fmt.Sprintf("%s p50 %.4f = fleet.route_ms %.4f + ", fleetClientSpan, t.p50(fleetClientSpan), route)
		}
		r.Decomposition = append(r.Decomposition, fmt.Sprintf(
			"edge ladder, %s: %s%s p50 %.4f = core.client.codec_ms %.4f (self p50) + roundtrip p50 %.4f; roundtrip mean %.4f = core.transport_ms %.4f + core.server.edge_ms %.4f (mean of %.0f); edge = core.server.handler_ms %.4f + %s mean %.4f",
			name, routing, clientSpan[op], opP50, codec, t.p50("roundtrip/"+clientSpan[op]), roundtrip, transport, edge, drained.edgeCount[op]-primed.edgeCount[op], handler, instSpan[op], inst))
		inst = t.p50(instSpan[op])

		explained := 0.0
		var parts []string
		if sp.fleet {
			explained += barrier
			parts = append(parts, fmt.Sprintf("fleet.barrier_ms %.4f", barrier))
		}
		for _, l := range leavesOf(sp, op) {
			p50 := t.p50(l.name + "@" + name)
			explained += float64(l.count) * p50
			parts = append(parts, fmt.Sprintf("%d x %s p50 %.4f", l.count, l.name, p50))
		}
		unexplained := inst - explained
		leaves := "no leaf"
		if len(parts) > 0 {
			leaves = strings.Join(parts, " + ")
		}
		r.Decomposition = append(r.Decomposition, fmt.Sprintf(
			"instance ladder, %s: %s p50 %.4f = %s + core.instance.%s_unexplained_ms %.4f",
			name, instSpan[op], inst, leaves, name, unexplained))
		layer("core.instance."+name+"_ms", inst)
		layer("core.instance."+name+"_unexplained_ms", unexplained)
		if unexplained < -0.10*inst {
			r.fail("instance ladder, %s: leaves sum to %.4f ms, more than 110%% of the %.4f ms the instance takes: the scratch probes are not measuring what the instance does", name, explained, inst)
		}
		if op == primaryOp(sp) {
			layer("core.client.codec_ms", codec)
			layer("core.server.edge_ms", edge)
			layer("core.transport_ms", transport)
			layer("core.server.handler_ms", handler)
		}
	}
}

// sampleLag samples, every 10 ms, how many commits the furthest-behind
// follower trails its primary by. The returned function stops the sampler
// and returns the samples in ascending order; off a fleet there are none.
func (e *env) sampleLag() (stop func() []float64) {
	if e.fleet == nil {
		return func() []float64 { return nil }
	}
	var lag []float64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			worst := 0.0
			for _, shard := range e.fleet.Shards() {
				// Read the follower first: read after the primary it could
				// have passed the value read before it.
				pos := e.fleet.Follower(shard).Pos()
				if d := float64(e.fleet.Instance(shard).DBSeq()) - float64(pos); d > worst {
					worst = d
				}
			}
			lag = append(lag, worst)
		}
	}()
	return func() []float64 {
		close(quit)
		wg.Wait()
		sort.Float64s(lag)
		return lag
	}
}
