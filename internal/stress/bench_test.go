// Full-stack benchmark over loopback TLS against one instance (DESIGN.md
// §11). The end-to-end workloads live in the bench module.
package stress

import (
	"context"
	"testing"

	"palaemon/internal/obs"
)

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
