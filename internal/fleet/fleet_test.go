package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/wire"
)

var testAppBinary = sgx.Binary{Name: "fleet-app", Code: []byte("fleet-workload-v1")}

func testPolicy(name string) *policy.Policy {
	return &policy.Policy{
		Name: name,
		Services: []policy.Service{{
			Name:       "app",
			Command:    "serve --token $$api_token",
			MREnclaves: []sgx.Measurement{testAppBinary.Measure()},
		}},
		Secrets: []policy.Secret{{Name: "api_token", Type: policy.SecretRandom}},
	}
}

func bootFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	f, err := New(opts)
	if err != nil {
		t.Fatalf("boot fleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// pickOwned returns a policy name owned by the given shard.
func pickOwned(r *Ring, shard string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("pol-%s-%d", shard, i)
		if r.Owner(name) == shard {
			return name
		}
	}
}

// pickForeign returns a policy name NOT owned by the given shard.
func pickForeign(r *Ring, shard string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("foreign-%d", i)
		if r.Owner(name) != shard {
			return name
		}
	}
}

func TestFleetRoutingAndWrongShardRedirect(t *testing.T) {
	f := bootFleet(t, Options{Shards: 2, Replication: 1})
	ctx := context.Background()

	cli, err := f.NewStakeholderClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Ten policies spread across the ring, each created and read back
	// through the routing client.
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("routed-%d", i)
		if err := cli.CreatePolicy(ctx, testPolicy(name)); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		p, err := cli.ReadPolicy(ctx, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("read %s returned %s", name, p.Name)
		}
	}
	if cli.Epoch() != 1 {
		t.Fatalf("client epoch = %d, want 1", cli.Epoch())
	}

	// A request for a policy this shard does not own must come back as
	// the typed wrong_shard envelope whose Redirect is directly usable.
	wrongShard := f.Shards()[0]
	name := pickForeign(f.Ring(), wrongShard)
	owner := f.Ring().Owner(name)

	// Policies are creator-scoped, so the misrouting probe must use the
	// creator's certificate; route the create through the fleet client
	// bound to that same identity.
	cert, _, err := core.NewClientCertificate("direct")
	if err != nil {
		t.Fatal(err)
	}
	creator, err := NewClient(ClientOptions{
		Seeds:       []string{f.Endpoint(owner)},
		DocKey:      f.DocKey(),
		Roots:       f.Authority().Root().Pool(),
		Certificate: cert,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := creator.CreatePolicy(ctx, testPolicy(name)); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	direct := core.NewClient(core.ClientOptions{
		BaseURL:     f.Endpoint(wrongShard),
		Roots:       f.Authority().Root().Pool(),
		Certificate: cert,
		Timeout:     10 * time.Second,
	})
	_, err = direct.ReadPolicy(ctx, name)
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("misrouted read: got %v, want a wire envelope", err)
	}
	if we.Code != wire.CodeWrongShard {
		t.Fatalf("misrouted read code = %q, want %q", we.Code, wire.CodeWrongShard)
	}
	if we.Status != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted read status = %d, want 421", we.Status)
	}
	if we.Redirect != f.Endpoint(owner) {
		t.Fatalf("redirect = %q, want owner endpoint %q", we.Redirect, f.Endpoint(owner))
	}
	// The redirect is usable as-is: a client pointed at it succeeds
	// without re-fetching the discovery document.
	redirected := core.NewClient(core.ClientOptions{
		BaseURL:     we.Redirect,
		Roots:       f.Authority().Root().Pool(),
		Certificate: cert,
		Timeout:     10 * time.Second,
	})
	if _, err := redirected.ReadPolicy(ctx, name); err != nil {
		t.Fatalf("read via redirect: %v", err)
	}
}

func TestFleetClientRejectsForgedDiscoveryDoc(t *testing.T) {
	f := bootFleet(t, Options{Shards: 2, Replication: 1})
	cert, _, err := core.NewClientCertificate("bob")
	if err != nil {
		t.Fatal(err)
	}
	// A client anchored to the WRONG document key must treat the fleet's
	// (authentic, but unverifiable-to-it) documents as forgeries and
	// refuse to route at all.
	wrongKey, err := NewClient(ClientOptions{
		Seeds:       []string{f.Endpoint(f.Shards()[0])},
		DocKey:      cryptoutil.MustNewSigner().Public,
		Roots:       f.Authority().Root().Pool(),
		Certificate: cert,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = wrongKey.Refresh(context.Background())
	if !errors.Is(err, ErrBadDocSignature) {
		t.Fatalf("refresh under wrong doc key: got %v, want ErrBadDocSignature", err)
	}
	if wrongKey.Epoch() != 0 || wrongKey.Doc() != nil {
		t.Fatal("client adopted an unverifiable document")
	}

	// A client that has already verified a NEWER epoch must reject the
	// fleet's current document as stale rather than roll back its map.
	ahead, err := f.NewStakeholderClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	ahead.mu.Lock()
	ahead.epoch = 99
	ahead.mu.Unlock()
	err = ahead.Refresh(context.Background())
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("refresh below verified epoch: got %v, want ErrStaleEpoch", err)
	}
}

func TestFleetReplicationFeedIsFollowerOnly(t *testing.T) {
	f := bootFleet(t, Options{Shards: 1, Replication: 2})
	shard := f.Shards()[0]

	cert, _, err := core.NewClientCertificate("nosy")
	if err != nil {
		t.Fatal(err)
	}
	direct := core.NewClient(core.ClientOptions{
		BaseURL:     f.Endpoint(shard),
		Roots:       f.Authority().Root().Pool(),
		Certificate: cert,
		Timeout:     10 * time.Second,
	})
	// The feed carries plaintext policy secrets; an ordinary stakeholder
	// certificate must be turned away.
	_, err = direct.ReplState(context.Background())
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeReplDenied {
		t.Fatalf("repl state as stakeholder: got %v, want %s envelope", err, wire.CodeReplDenied)
	}
	_, err = direct.ReplTail(context.Background(), 0, 16, 0)
	if !errors.As(err, &we) || we.Code != wire.CodeReplDenied {
		t.Fatalf("repl tail as stakeholder: got %v, want %s envelope", err, wire.CodeReplDenied)
	}
}

func TestFleetFollowerTracksLeader(t *testing.T) {
	// BarrierTimeout is generous because this test asserts Degraded == 0:
	// a healthy follower acks in milliseconds, but under a loaded -race
	// test machine the 2s default can expire spuriously and turn a
	// scheduling hiccup into a failure.
	f := bootFleet(t, Options{Shards: 1, Replication: 2, Observe: true,
		BarrierTimeout: 30 * time.Second})
	ctx := context.Background()
	shard := f.Shards()[0]

	cli, err := f.NewStakeholderClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	fo := f.Follower(shard)
	for i := 0; i < 8; i++ {
		if err := cli.CreatePolicy(ctx, testPolicy(fmt.Sprintf("track-%d", i))); err != nil {
			t.Fatalf("create track-%d: %v (follower pos=%d verified=%d err=%v)",
				i, err, fo.Pos(), fo.Verified(), fo.Err())
		}
	}
	// The semi-sync barrier means every acked write is already on the
	// follower (unless a barrier degraded, which this quiet test must
	// not see).
	if d := f.Degraded(shard); d != 0 {
		t.Fatalf("%d writes degraded to async on an idle fleet", d)
	}
	lead := f.Instance(shard).DBSeq()
	if pos := fo.Pos(); pos < lead {
		t.Fatalf("follower pos %d behind acked leader seq %d", pos, lead)
	}
	if fo.Verified() == 0 {
		t.Fatal("follower verified no entries")
	}
	if err := fo.Err(); err != nil {
		t.Fatalf("follower unhealthy: %v", err)
	}
}
