package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("palaemon_requests_total", "counter", "Requests served.")
	r.Counter("palaemon_requests_total", L("route", "/v2/batch"), L("tenant", "aa11")).Add(3)
	r.Counter("palaemon_requests_total", L("tenant", "bb22"), L("route", "/v2/batch")).Inc()
	r.Gauge("palaemon_inflight_requests").Set(2)
	r.DescribeHistogram("palaemon_request_seconds", "Latency.", []time.Duration{time.Millisecond, time.Second})
	r.Histogram("palaemon_request_seconds", L("route", "/v2/batch")).Observe(500 * time.Microsecond)
	r.Histogram("palaemon_request_seconds", L("route", "/v2/batch")).Observe(2 * time.Second)
	r.RegisterCollector(CollectorFunc(func() []Sample {
		return []Sample{{Name: "palaemon_policy_cache_hits_total", Type: "counter", Help: "Cache hits.", Value: 42}}
	}))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP palaemon_requests_total Requests served.",
		"# TYPE palaemon_requests_total counter",
		// Labels render sorted by name regardless of call-site order.
		`palaemon_requests_total{route="/v2/batch",tenant="aa11"} 3`,
		`palaemon_requests_total{route="/v2/batch",tenant="bb22"} 1`,
		"# TYPE palaemon_inflight_requests gauge",
		"palaemon_inflight_requests 2",
		"# TYPE palaemon_request_seconds histogram",
		`palaemon_request_seconds_bucket{route="/v2/batch",le="0.001"} 1`,
		`palaemon_request_seconds_bucket{route="/v2/batch",le="1"} 1`,
		`palaemon_request_seconds_bucket{route="/v2/batch",le="+Inf"} 2`,
		`palaemon_request_seconds_count{route="/v2/batch"} 2`,
		"# TYPE palaemon_policy_cache_hits_total counter",
		"palaemon_policy_cache_hits_total 42",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Families come out sorted by name, so scrapes are diffable.
	if strings.Index(out, "palaemon_policy_cache_hits_total") > strings.Index(out, "palaemon_requests_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestRegistrySameSeriesSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("k", "v"))
	b := r.Counter("x_total", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", L("k", "other"))
	if a == c {
		t.Fatal("different labels shared a counter")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter family did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", L("k", "v")).Add(7)
	r.Histogram("lat_seconds").Observe(time.Millisecond)
	r.RegisterCollector(CollectorFunc(func() []Sample {
		return []Sample{{Name: "b_total", Type: "counter", Value: 1}}
	}))
	byName := map[string]float64{}
	for _, s := range r.Snapshot() {
		byName[s.Name] = s.Value
	}
	if byName["a_total"] != 7 || byName["b_total"] != 1 || byName["lat_seconds_count"] != 1 {
		t.Fatalf("snapshot = %+v", byName)
	}
}
