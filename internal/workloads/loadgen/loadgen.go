// Package loadgen drives workload services the way the paper's tools do:
// closed-loop worker pools (memtier, the ZooKeeper benchmark) and open-loop
// fixed-rate issue (wrk2, the approval-service experiment in Fig 13, where
// requests are issued at fixed rates "until the response latencies spike").
package loadgen

import (
	"sort"
	"sync"
	"time"
)

// RequestFunc executes one request and returns its service latency. For
// workloads whose cost is partly modelled (tracker mode), the function
// returns the modelled latency; wall-clock workloads return 0 and the
// generator measures elapsed time itself.
type RequestFunc func(worker, seq int) (time.Duration, error)

// Result summarises one load run.
type Result struct {
	// Requests completed and failed.
	Requests, Failures int
	// Elapsed is the wall-clock run duration.
	Elapsed time.Duration
	// Throughput is completed requests per second.
	Throughput float64
	// Mean, P50, P95, P99 and Max are latency statistics.
	Mean, P50, P95, P99, Max time.Duration
}

func summarize(latencies []time.Duration, failures int, elapsed time.Duration) Result {
	r := Result{
		Requests: len(latencies),
		Failures: failures,
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		r.Throughput = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(latencies) == 0 {
		return r
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	r.Mean = sum / time.Duration(len(latencies))
	r.P50 = Percentile(latencies, 0.50)
	r.P95 = Percentile(latencies, 0.95)
	r.P99 = Percentile(latencies, 0.99)
	r.Max = latencies[len(latencies)-1]
	return r
}

// Percentile returns the q-quantile of an ascending slice by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it (sorted[⌈q·n⌉-1]), so it never invents a latency no request
// had. Zero for no samples. It is the one exact-percentile summarizer; the
// bucketed obs.Histogram is the server-side approximation.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float error in q·n (0.07·100 = 7.000000000000001)
	// from rounding an exact rank up to the next one.
	rank := int(q*float64(len(sorted)) + 1 - 1e-9)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// RunClosed drives fn with `workers` concurrent workers for `duration`
// (closed loop: each worker issues its next request when the previous one
// completes) and reports achieved throughput and latency.
func RunClosed(workers int, duration time.Duration, fn RequestFunc) Result {
	if workers <= 0 {
		workers = 1
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		failures  int
	)
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			localFail := 0
			for seq := 0; time.Now().Before(deadline); seq++ {
				t0 := time.Now()
				modelled, err := fn(w, seq)
				if err != nil {
					localFail++
					continue
				}
				lat := time.Since(t0)
				if modelled > lat {
					lat = modelled
				}
				local = append(local, lat)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			failures += localFail
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return summarize(latencies, failures, time.Since(start))
}

// RunOpen issues requests at a fixed offered rate (per second) for
// `duration`, with up to maxInflight concurrent requests; excess arrivals
// queue in the scheduler, so an overloaded service shows the latency spike
// the paper plots. The reported Result's Throughput is the ACHIEVED rate.
func RunOpen(rate float64, duration time.Duration, maxInflight int, fn RequestFunc) Result {
	if rate <= 0 {
		rate = 1
	}
	if maxInflight <= 0 {
		maxInflight = 256
	}
	interval := time.Duration(float64(time.Second) / rate)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		failures  int
		wg        sync.WaitGroup
	)
	sem := make(chan struct{}, maxInflight)
	start := time.Now()
	deadline := start.Add(duration)
	seq := 0
	for next := start; next.Before(deadline); next = next.Add(interval) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		issued := time.Now()
		sem <- struct{}{}
		wg.Add(1)
		go func(seq int, issued time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			modelled, err := fn(0, seq)
			if err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
				return
			}
			// Open-loop latency includes queueing from the issue instant.
			lat := time.Since(issued)
			if modelled > lat {
				lat = modelled
			}
			mu.Lock()
			latencies = append(latencies, lat)
			mu.Unlock()
		}(seq, issued)
		seq++
	}
	wg.Wait()
	return summarize(latencies, failures, time.Since(start))
}
