// Full-stack benchmarks (DESIGN.md §5): N concurrent stakeholders over TLS
// against one instance. Run:
//
//	go test ./internal/stress -bench=. -benchtime=10x
//
// The kvdb-level grid (BenchmarkConcurrentWriters in internal/kvdb)
// isolates the WAL; this one shows the end-to-end effect with the HTTP,
// TLS, attestation, and policy layers on top.
package stress

import (
	"context"
	"fmt"
	"testing"

	"palaemon/internal/obs"
)

func benchWorkload(b *testing.B, opts Options, stakeholders int) {
	opts.DataDir = b.TempDir()
	h, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rep, err := h.Run(context.Background(), WorkloadOptions{
			Stakeholders: stakeholders,
			Iterations:   3,
			TagPushes:    3,
		})
		if err != nil {
			b.Fatalf("%v\n%s", err, rep)
		}
		b.ReportMetric(rep.Throughput(), "ops/sec")
		if st, ok := rep.PerOp["push-tag"]; ok {
			b.ReportMetric(float64(st.P95.Microseconds()), "push-p95-µs")
		}
	}
}

// BenchmarkStakeholders is the end-to-end concurrent-stakeholder grid.
func BenchmarkStakeholders(b *testing.B) {
	for _, stakeholders := range []int{1, 8} {
		b.Run(fmt.Sprintf("stakeholders=%d", stakeholders), func(b *testing.B) {
			benchWorkload(b, Options{}, stakeholders)
		})
	}
}

// BenchmarkObsServing is the observability ablation (DESIGN.md §11): one
// stakeholder fetching secrets over loopback HTTPS with the obs bundle
// absent versus installed (metrics + histograms; logs discarded). The
// delta is the per-request cost of the server-edge middleware. Run:
//
//	go test ./internal/stress -bench=ObsServing -benchtime=2000x
func BenchmarkObsServing(b *testing.B) {
	for _, mode := range []struct {
		name   string
		bundle *obs.Obs
	}{
		{"off", nil},
		{"on", obs.New(nil)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			h, err := New(Options{DataDir: b.TempDir(), Obs: mode.bundle})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			s, err := h.NewStakeholder("obs-bench")
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := s.Client.CreatePolicy(ctx, h.BenchPolicy("obs-bench")); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Client.FetchSecrets(ctx, "obs-bench", nil, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := s.Client.FetchSecrets(ctx, "obs-bench", nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
