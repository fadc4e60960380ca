package stress

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"palaemon/internal/attest"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/sgx"
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

	const stakeholders, iterations = 6, 4
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, stakeholders)
	for w := 0; w < stakeholders; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if err := stakeholderLifecycle(ctx, h, name, iterations); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}(fmt.Sprintf("s%d", w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every session exited cleanly, policies deleted.
	names, err := h.Instance.ListPolicyNames()
	if err != nil {
		t.Fatalf("ListPolicyNames: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("%d policies left behind", len(names))
	}
}

// stakeholderLifecycle creates the stakeholder's policy, runs each
// iteration's read, fetch, update, attest, two tag pushes and exit, and
// deletes the policy. It stops at the first failed operation.
func stakeholderLifecycle(ctx context.Context, h *Harness, name string, iterations int) error {
	s, err := h.NewStakeholder(name)
	if err != nil {
		return err
	}
	defer s.Client.CloseIdle()
	enclave, err := h.Platform.Launch(h.AppBinary, sgx.LaunchOptions{})
	if err != nil {
		return err
	}
	defer enclave.Destroy()

	cli, pol := s.Client, s.PolicyName()
	if err := cli.CreatePolicy(ctx, h.BenchPolicy(pol)); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	for iter := 1; iter <= iterations; iter++ {
		if _, err := cli.ReadPolicy(ctx, pol); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		if _, err := cli.FetchSecrets(ctx, pol, nil, nil); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		if err := cli.UpdatePolicy(ctx, h.BenchPolicy(pol)); err != nil {
			return fmt.Errorf("update: %w", err)
		}
		// A fresh session key per execution, as a real runtime would.
		signer, err := cryptoutil.NewSigner()
		if err != nil {
			return err
		}
		cfg, err := cli.Attest(ctx, attest.NewEvidence(enclave, pol, "app", signer.Public), h.Platform.QuotingKey(), nil)
		if err != nil {
			return fmt.Errorf("attest: %w", err)
		}
		tag := fspf.Tag{byte(iter)}
		for push := 0; push < 2; push++ {
			tag[1] = byte(push)
			if err := cli.PushTag(ctx, cfg.SessionToken, tag, nil); err != nil {
				return fmt.Errorf("push: %w", err)
			}
		}
		if err := cli.NotifyExit(ctx, cfg.SessionToken, tag); err != nil {
			return fmt.Errorf("exit: %w", err)
		}
	}
	if err := cli.DeletePolicy(ctx, pol); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}
