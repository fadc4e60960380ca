package stress

import (
	"context"
	"testing"

	"palaemon/internal/simnet"
)

// TestBatchFetchCollapsesRoundTrips is the stress-level Fig 12 check: at
// the intercontinental distance, fetching >= 4 policies' secrets via one
// /v2/batch must be at least 3x faster (modelled wall-clock) than
// sequential per-policy calls — and the batch's modelled network share
// must be a single round trip.
func TestBatchFetchCollapsesRoundTrips(t *testing.T) {
	h, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	rep, err := h.RunBatchFetch(context.Background(), BatchFetchOptions{
		Policies: 4,
		Secrets:  8,
		Rounds:   3,
		Profile:  simnet.KM11000,
	})
	if err != nil {
		t.Fatalf("RunBatchFetch: %v\n%s", err, rep)
	}
	if got := rep.Speedup(); got < 3 {
		t.Fatalf("speedup %.2fx, want >= 3x\n%s", got, rep)
	}
	// The batched network share is one modelled round trip per round (+
	// jitter and payload transfer), where sequential pays one per policy.
	perRound := rep.BatchedNet / 3
	if lim := simnet.KM11000.RTT + simnet.KM11000.RTT/2; perRound >= lim {
		t.Fatalf("batched net %v per round, want < %v (one RTT-ish)", perRound, lim)
	}
	if rep.SequentialNet < 3*rep.BatchedNet {
		t.Fatalf("sequential net %v vs batched %v: round trips did not collapse\n%s",
			rep.SequentialNet, rep.BatchedNet, rep)
	}
	t.Logf("\n%s", rep)
}
