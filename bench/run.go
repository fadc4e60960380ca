package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"palaemon/internal/obs"
	"palaemon/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload's run produced.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Decomposition is the traced run's two ladders, every operand named.
	Decomposition []string `json:"decomposition,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// counters are the program's own public counters, read while nothing is
// in flight; the difference of two readings divided by the visits between
// them is exact, where a reading at a window's edge would be clipped.
type counters struct {
	dbSeq, hits, misses, invalidations, verified, degraded uint64
	walBytes, auditBytes                                   int64
	conflicts                                              float64
	asks                                                   int64
	series                                                 int
	// edgeSum/edgeCount are palaemon_request_seconds per route.
	edgeSum, edgeCount [numOps]float64
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (e *env) counters() counters {
	var k counters
	k.asks = e.asks.Load()
	registry := func(samples []obs.Sample) {
		k.series += len(samples)
		for _, s := range samples {
			label := func(name string) string {
				for _, l := range s.Labels {
					if l.Name == name {
						return l.Value
					}
				}
				return ""
			}
			switch s.Name {
			case "palaemon_request_errors_total":
				if label("code") == wire.CodeConflict {
					k.conflicts += s.Value
				}
			case "palaemon_request_seconds_sum", "palaemon_request_seconds_count":
				for op, route := range routes {
					if label("route") != route {
						continue
					}
					if s.Name == "palaemon_request_seconds_sum" {
						k.edgeSum[op] += s.Value
					} else {
						k.edgeCount[op] += s.Value
					}
				}
			}
		}
	}
	if e.fleet != nil {
		for _, shard := range e.fleet.Shards() {
			cs := e.fleet.Instance(shard).CacheStats()
			k.dbSeq += cs.DBSeq
			k.hits, k.misses, k.invalidations = k.hits+cs.Hits, k.misses+cs.Misses, k.invalidations+cs.Invalidations
			k.verified += e.fleet.Follower(shard).Verified()
			k.degraded += e.fleet.Degraded(shard)
			k.walBytes += fileSize(filepath.Join(e.dir, "fleet", shard, "primary", "wal.log"))
			registry(e.fleet.Observability(shard).Metrics.Snapshot())
		}
		return k
	}
	cs := e.dep.Instance.CacheStats()
	k.dbSeq, k.hits, k.misses, k.invalidations = cs.DBSeq, cs.Hits, cs.Misses, cs.Invalidations
	k.walBytes = fileSize(filepath.Join(e.dir, "instance", "wal.log"))
	k.auditBytes = fileSize(filepath.Join(e.dir, "instance", "audit.log"))
	registry(e.dep.Obs.Metrics.Snapshot())
	return k
}

// procStats is the process's resource use; client and server share it.
type procStats struct {
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcCPU     float64
	totalCPU  float64
	rssPeakKB int64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return procStats{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcCPU:     cpu[0].Value.Float64(),
		totalCPU:  cpu[1].Value.Float64(),
		rssPeakKB: ru.Maxrss,
	}
}

// rungSlice is how long the traced run stays on one rung.
const rungSlice = 100 * time.Millisecond

// drive runs every client for one window and returns how long it took
// from the first visit's start to the last visit's end. A closed-loop
// client sends its next visit when the last one returned; a paced client
// follows its schedule. In the traced run every client climbs the same
// rung during the same 100 ms slice, slice k using rung k mod 3: a rung
// then meets the load the untraced run has (its own kind of visit from
// every client) and not the other rungs' probes, and every rung sees the
// same keys and mix over the window.
func (e *env) drive(ctx context.Context, window time.Duration, traced bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, rung := 0, rungEdge
			one := func(int) error {
				var root *span
				if traced {
					rung = int(time.Since(start)/rungSlice) % numRungs
					c.belowEdge = rung != rungEdge
					c.rec.visit = int32(n + 1)
					root = c.rec.begin(visitSpan[rung])
				}
				n++
				err := c.visit(ctx, c.gen.next(), rung)
				c.rec.end(root)
				return err
			}
			record := func(lat time.Duration, err error) {
				c.attempted++
				if err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
					return
				}
				// The traced run keeps the edge rung's latencies only: they
				// are the ones comparable with the untraced window's.
				if rung == rungEdge {
					c.lat.add(lat)
				}
			}
			if e.sp.rate > 0 {
				interval := time.Second * time.Duration(len(e.clients)) / time.Duration(e.sp.rate)
				offset := interval * time.Duration(c.idx) / time.Duration(len(e.clients))
				paced(c.clk, start.Add(offset), interval, window, one, record, c.late.add)
				return
			}
			for deadline := start.Add(window); time.Now().Before(deadline); {
				t0 := time.Now()
				err := one(0)
				record(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// collect merges the clients' tallies into the result.
func (e *env) collect(r *result) {
	for _, c := range e.clients {
		r.Attempted += c.attempted
		r.Failed += c.failed
		if c.firstErr != nil {
			r.fail("client %d: %d of %d visits failed, first: %v", c.idx, c.failed, c.attempted, c.firstErr)
		}
	}
}

func (e *env) samples(pick func(*client) *samples) []float64 {
	lists := make([]*samples, len(e.clients))
	for i, c := range e.clients {
		lists[i] = pick(c)
	}
	return sortedMs(lists...)
}

// runWorkload is the run protocol for one workload: timed set-up, warm-up,
// the untraced measured window that yields every end-to-end metric,
// correctness checks, tear-down, and (with traced set) a second, traced
// run on a fresh deployment that yields the per-layer metrics.
func runWorkload(ctx context.Context, sp spec, cfg runConfig, traced bool, traceFile string) *result {
	r := &result{Workload: sp.name, Correct: true, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	layer := func(name string, v float64, unit string) { r.PerLayer[name] = metric{v, unit} }
	// Every per-layer metric is reported on every workload; one a workload
	// does not reach reads 0.
	for _, d := range perLayerMetrics {
		layer(d.name, 0, d.unit)
	}
	if sp.durable() {
		defer pinSysmon()()
	}

	// (1) Set-up, timed; the last deployment is the one measured.
	var e *env
	setupS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.teardown(); err != nil {
				r.fail("teardown: %v", err)
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, sp, cfg, false); err != nil {
			r.fail("setup: %v", err)
			return r
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	sort.Float64s(setupS)
	primed := e.counters()

	// (2) Warm-up, discarded.
	e.drive(ctx, cfg.warmup, false)
	warmVisits := 0
	for _, c := range e.clients {
		warmVisits += c.attempted - c.failed
		if c.firstErr != nil {
			r.fail("warm-up, client %d: %v", c.idx, c.firstErr)
		}
		c.resetSamples()
	}

	// (3) Measured window, tracing off.
	runtime.GC()
	before := readProc()
	elapsed := e.drive(ctx, cfg.window, false)
	after := readProc()
	drained := e.counters()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	goroutines := runtime.NumGoroutine()

	e.collect(r)
	ok := float64(r.Attempted - r.Failed)
	if ok == 0 {
		r.fail("no visit succeeded")
		ok = 1
	}
	lat := e.samples(func(c *client) *samples { return &c.lat })
	var buffers int64
	for _, c := range e.clients {
		buffers += c.lat.bytes() + c.late.bytes()
		for k := range c.kinds {
			buffers += c.kinds[k].bytes()
		}
	}
	r.EndToEnd = map[string]metric{
		"ops_per_s":       {ok / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_p95_ms":  {percentile(lat, 0.95), "ms"},
		"allocs_per_op":   {float64(after.mallocs-before.mallocs) / ok, "count"},
		"alloc_kb_per_op": {float64(after.allocated-before.allocated) / 1024 / ok, "KB"},
		"heap_live_mb":    {float64(int64(ms.HeapAlloc)-buffers) / (1 << 20), "MB"},
		"setup_s":         {setupS[len(setupS)/2], "s"},
	}
	if sp.rate > 0 && ok/elapsed.Seconds() < 0.98*float64(sp.rate) {
		r.fail("achieved %.1f visits/s of %d offered: the schedule fell behind", ok/elapsed.Seconds(), sp.rate)
	}

	// Layer metrics that come from the untraced window and its counters.
	q := tailQuantile(len(lat))
	layer("bench.latency_tail_ms", percentile(lat, q), "ms")
	layer("bench.latency_tail_q", q, "quantile")
	layer("bench.samples", float64(len(lat)), "count")
	for k, name := range opNames {
		ks := e.samples(func(c *client) *samples { return &c.kinds[k] })
		layer("bench.kind."+name+".p50_ms", median(ks), "ms")
		layer("bench.kind."+name+".p95_ms", percentile(ks, 0.95), "ms")
	}
	layer("bench.gen_late_ms_p95", percentile(e.samples(func(c *client) *samples { return &c.late }), 0.95), "ms")
	visits := ok + float64(warmVisits)
	layer("core.db_commits_per_op", float64(drained.dbSeq-primed.dbSeq)/visits, "count")
	layer("core.conflicts", drained.conflicts-primed.conflicts, "count")
	hits, misses := float64(drained.hits-primed.hits), float64(drained.misses-primed.misses)
	if hits+misses > 0 {
		layer("core.policycache.hit_rate", hits/(hits+misses), "ratio")
	}
	layer("core.policycache.misses_per_op", misses/visits, "count")
	layer("core.policycache.invalidations_per_op", float64(drained.invalidations-primed.invalidations)/visits, "count")
	layer("kvdb.wal_kb_per_op", float64(drained.walBytes-primed.walBytes)/1024/visits, "KB")
	layer("obs.audit_kb_per_op", float64(drained.auditBytes-primed.auditBytes)/1024/visits, "KB")
	layer("obs.series", float64(drained.series), "count")
	layer("board.asks_per_op", float64(drained.asks-primed.asks)/visits, "count")
	if sp.fleet {
		layer("fleet.repl_entries_per_write", float64(drained.verified-primed.verified)/visits, "count")
		layer("fleet.barrier_degraded", float64(drained.degraded), "count")
	}
	layer("proc.cpu_ms_per_op", float64(after.cpu-before.cpu)/1e6/ok, "ms")
	layer("proc.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		layer("proc.gc_cpu_pct", 100*(after.gcCPU-before.gcCPU)/cpu, "%")
	}
	layer("proc.goroutines_end", float64(goroutines), "count")
	layer("proc.rss_peak_mb", float64(after.rssPeakKB)/1024, "MB")

	// (4) Quiesced: correctness checks, the failover drill, tear-down.
	for _, err := range e.check(ctx) {
		r.fail("check: %v", err)
	}
	if sp.fleet {
		ms, err := e.failoverDrill(ctx)
		if err != nil {
			r.fail("failover drill: %v", err)
		}
		layer("fleet.failover_ms", ms, "ms")
		for _, err := range e.check(ctx) {
			r.fail("check after failover: %v", err)
		}
	}
	if err := e.teardown(); err != nil {
		r.fail("teardown: %v", err)
	}

	// (5) Traced run: fresh deployment, same seed.
	if traced {
		tracedRun(ctx, sp, cfg, r, traceFile)
	}
	return r
}

// check is the quiescent correctness pass: stored revisions against
// acknowledged updates, stored tags against the last pushed ones, and on
// a fleet every follower level with its primary and no barrier degraded.
func (e *env) check(ctx context.Context) []error {
	var errs []error
	for _, c := range e.clients {
		for _, st := range c.pols {
			if e.sp.mix[visitUpdate] > 0 {
				p, err := c.readPolicy(ctx, st.name)
				if err != nil {
					errs = append(errs, fmt.Errorf("read %s: %w", st.name, err))
					continue
				}
				if lo := st.baseRev + st.acked; p.Revision < lo || p.Revision > lo+st.uncertain {
					errs = append(errs, fmt.Errorf("%s: revision %d, want %d (+%d uncertain): an update was lost or applied twice", st.name, p.Revision, lo, st.uncertain))
				}
			}
			if e.sp.mix[visitAttest] > 0 {
				tag, err := e.instance(st).ExpectedTag(st.name, "app")
				if err != nil || tag != st.lastTag {
					errs = append(errs, fmt.Errorf("%s: stored tag %s (%v), last pushed %s", st.name, tag, err, st.lastTag))
				}
			}
		}
	}
	if e.fleet != nil {
		for _, shard := range e.fleet.Shards() {
			inst, fo := e.fleet.Instance(shard), e.fleet.Follower(shard)
			for deadline := time.Now().Add(5 * time.Second); fo.Pos() != inst.DBSeq() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if fo.Pos() != inst.DBSeq() {
				errs = append(errs, fmt.Errorf("%s: follower at %d, primary at %d (%v)", shard, fo.Pos(), inst.DBSeq(), fo.Err()))
			}
			if d := e.fleet.Degraded(shard); d != 0 {
				errs = append(errs, fmt.Errorf("%s: %d writes degraded to asynchronous replication", shard, d))
			}
		}
	}
	return errs
}

// failoverDrill kills and promotes one shard while one client keeps
// writing to policies that shard owns on a 5 ms schedule, and returns the
// time from the kill to the first write acknowledged after it. Scheduled
// writes that fall into the gap fail; they are the drill's own tally and
// are not visits of the measured window.
func (e *env) failoverDrill(ctx context.Context) (float64, error) {
	c := e.clients[0]
	victim := e.fleet.Shards()[0]
	var owned []*polState
	for _, st := range c.pols {
		if st.shard == victim {
			owned = append(owned, st)
		}
	}
	if len(owned) == 0 {
		return 0, fmt.Errorf("client 0 owns no policy on %s", victim)
	}

	const interval, lead, tail = 5 * time.Millisecond, 20, 20
	var mu sync.Mutex // guards killed, between the writer and this goroutine
	var killed, firstAck time.Time
	acksAfter, issuedAfter := 0, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		paced(c.clk, time.Now(), interval, 10*time.Second,
			func(i int) error {
				mu.Lock()
				issuedAfter = !killed.IsZero()
				mu.Unlock()
				if acksAfter >= tail {
					return errStop
				}
				return c.update(ctx, owned[i%len(owned)], op{nonce: uint64(i) + 1<<32}, rungEdge)
			},
			func(_ time.Duration, err error) {
				if err == nil && issuedAfter {
					if acksAfter == 0 {
						firstAck = time.Now()
					}
					acksAfter++
				}
			},
			func(time.Duration) {})
	}()
	time.Sleep(lead * interval)
	err := e.fleet.KillShard(victim)
	mu.Lock()
	killed = time.Now()
	mu.Unlock()
	if err == nil {
		err = e.fleet.Promote(victim)
	}
	<-done
	if err != nil {
		return 0, err
	}
	if firstAck.IsZero() {
		return 0, errors.New("no write was acknowledged after the promotion")
	}
	return float64(firstAck.Sub(killed)) / 1e6, nil
}
