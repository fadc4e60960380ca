package stress

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestConcurrentStakeholders is the core -race regression: many
// stakeholders hammer one instance over TLS through every hot path, and
// every operation must succeed — no lost updates, no stale sessions, no
// data races.
func TestConcurrentStakeholders(t *testing.T) {
	h, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	rep, err := h.Run(context.Background(), WorkloadOptions{
		Stakeholders: 6,
		Iterations:   4,
		TagPushes:    2,
	})
	if err != nil {
		t.Fatalf("workload error: %v\n%s", err, rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("workload had %d errors\n%s", rep.Errors, rep)
	}
	// create + iterations*(read+fetch+update+attest+2*push+exit) + delete
	wantPerStakeholder := 1 + 4*(1+1+1+1+2+1) + 1
	if want := 6 * wantPerStakeholder; rep.Ops != want {
		t.Fatalf("ops = %d, want %d\n%s", rep.Ops, want, rep)
	}
	// Every session exited cleanly, policies deleted.
	names, err := h.Instance.ListPolicyNames()
	if err != nil {
		t.Fatalf("ListPolicyNames: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("%d policies left behind", len(names))
	}
	t.Logf("\n%s", rep)
}

// TestStressReportAccounting sanity-checks the latency accounting.
func TestStressReportAccounting(t *testing.T) {
	h, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background(), WorkloadOptions{Stakeholders: 2, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput() <= 0 {
		t.Fatalf("throughput %v", rep.Throughput())
	}
	for kind, st := range rep.PerOp {
		if st.Count == 0 {
			t.Fatalf("op %s has no samples", kind)
		}
		if st.P50 > st.P95 || st.P95 > st.P99 || st.P99 > st.Max {
			t.Fatalf("op %s percentiles out of order: %+v", kind, st)
		}
		if st.Mean() <= 0 {
			t.Fatalf("op %s mean %v", kind, st.Mean())
		}
	}
	out := rep.String()
	for _, kind := range []string{"create", "read", "attest", "push-tag", "exit", "delete"} {
		if !strings.Contains(out, kind) {
			t.Fatalf("report missing %q:\n%s", kind, out)
		}
	}
}

// TestWorkloadHonoursContext proves a cancelled run stops promptly.
func TestWorkloadHonoursContext(t *testing.T) {
	h, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Errors are expected — the point is that it returns.
		h.Run(ctx, WorkloadOptions{Stakeholders: 2, Iterations: 1000})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled workload did not stop")
	}
}

// TestSkipCRUDWorkload drives the pure attest/tag-push hot path.
func TestSkipCRUDWorkload(t *testing.T) {
	h, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background(), WorkloadOptions{
		Stakeholders: 3,
		Iterations:   3,
		TagPushes:    5,
		SkipCRUD:     true,
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if _, ok := rep.PerOp["read"]; ok {
		t.Fatal("SkipCRUD still issued reads")
	}
	if st := rep.PerOp["push-tag"]; st.Count != 3*3*5 {
		t.Fatalf("push-tag count %d, want 45", st.Count)
	}
}
