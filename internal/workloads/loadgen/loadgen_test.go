package loadgen

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunClosedCountsAndLatency(t *testing.T) {
	var calls atomic.Int64
	res := RunClosed(4, 50*time.Millisecond, func(worker, seq int) (time.Duration, error) {
		calls.Add(1)
		time.Sleep(100 * time.Microsecond)
		return 0, nil
	})
	if res.Requests == 0 || int64(res.Requests) != calls.Load() {
		t.Fatalf("requests %d, calls %d", res.Requests, calls.Load())
	}
	if res.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	if res.Mean < 100*time.Microsecond {
		t.Fatalf("mean %v below service time", res.Mean)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 || res.P99 > res.Max {
		t.Fatalf("percentiles out of order: %v %v %v %v", res.P50, res.P95, res.P99, res.Max)
	}
}

func TestRunClosedFailures(t *testing.T) {
	boom := errors.New("boom")
	res := RunClosed(2, 20*time.Millisecond, func(worker, seq int) (time.Duration, error) {
		if seq%2 == 0 {
			return 0, boom
		}
		return 0, nil
	})
	if res.Failures == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestRunClosedModelledLatency(t *testing.T) {
	res := RunClosed(1, 20*time.Millisecond, func(worker, seq int) (time.Duration, error) {
		return 5 * time.Millisecond, nil // modelled, not slept
	})
	if res.Mean < 5*time.Millisecond {
		t.Fatalf("modelled latency ignored: mean %v", res.Mean)
	}
}

func TestRunOpenAchievesOfferedRate(t *testing.T) {
	res := RunOpen(2000, 100*time.Millisecond, 64, func(worker, seq int) (time.Duration, error) {
		return 0, nil
	})
	// Fast service: achieved ≈ offered (within generous scheduling slop).
	if res.Throughput < 800 {
		t.Fatalf("achieved %v of offered 2000", res.Throughput)
	}
}

func TestRunOpenLatencySpikesWhenOverloaded(t *testing.T) {
	service := 2 * time.Millisecond // capacity 500/s per inflight slot
	under := RunOpen(100, 150*time.Millisecond, 1, func(worker, seq int) (time.Duration, error) {
		time.Sleep(service)
		return 0, nil
	})
	over := RunOpen(2000, 150*time.Millisecond, 1, func(worker, seq int) (time.Duration, error) {
		time.Sleep(service)
		return 0, nil
	})
	if over.P99 <= under.P99 {
		t.Fatalf("overload P99 %v <= underload P99 %v", over.P99, under.P99)
	}
}

func TestDefaults(t *testing.T) {
	res := RunClosed(0, 10*time.Millisecond, func(worker, seq int) (time.Duration, error) {
		return 0, nil
	})
	if res.Requests == 0 {
		t.Fatal("zero workers not defaulted")
	}
	res = RunOpen(0, 10*time.Millisecond, 0, func(worker, seq int) (time.Duration, error) {
		return 0, nil
	})
	if res.Requests == 0 {
		t.Fatal("zero rate not defaulted")
	}
}

// TestPercentileNearestRank pins the one convention both the load
// generators and the stress recorder report: sorted[⌈q·n⌉-1].
func TestPercentileNearestRank(t *testing.T) {
	ramp := func(n int) []time.Duration { // 1, 2, …, n
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{0, 0.5, 0},
		{1, 0.5, 1}, {1, 0.95, 1}, {1, 0.99, 1},
		{2, 0.5, 1}, {2, 0.95, 2}, {2, 0.99, 2},
		{100, 0.5, 50}, {100, 0.95, 95}, {100, 0.99, 99}, {100, 0.07, 7}, {100, 1, 100},
	}
	for _, tc := range cases {
		if got := Percentile(ramp(tc.n), tc.q); got != tc.want {
			t.Errorf("Percentile(1..%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}
