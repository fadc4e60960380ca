package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestKillShardFailover is the acceptance drill (ISSUE 10): boot three
// shards with replication, write through the routing client, kill one
// shard's primary the hard way (refused connections + aborted instance,
// no drain), promote its follower, and prove that
//
//   - zero acknowledged writes are lost: every policy the client got an
//     ack for is readable after failover;
//   - every entry the replica applied was chain-verified;
//   - clients re-route via the refreshed signed document (epoch bump);
//   - the promoted shard accepts new writes.
func TestKillShardFailover(t *testing.T) {
	f := bootFleet(t, Options{
		Shards:      3,
		Replication: 2,
		Observe:     true,
		// Generous barrier: the drill asserts Degraded == 0 before the
		// kill, and a loaded test machine must not fake a slow follower.
		// Seal-on-kill fails parked barriers immediately, so the long
		// timeout does not slow the failover itself.
		BarrierTimeout: 30 * time.Second,
	})
	ctx := context.Background()

	cli, err := f.NewStakeholderClient("alice")
	if err != nil {
		t.Fatal(err)
	}

	// Acked writes spread across all three shards. acked holds exactly
	// the set the zero-loss guarantee covers.
	var acked []string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("surviving-%d", i)
		if err := cli.CreatePolicy(ctx, testPolicy(name)); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		acked = append(acked, name)
	}

	victim := f.Ring().Owner(acked[0])
	victimInst := f.Instance(victim)
	oldFollower := f.Follower(victim)
	victimOwned := 0
	for _, name := range acked {
		if f.Ring().Owner(name) == victim {
			victimOwned++
		}
	}
	if victimOwned == 0 {
		t.Fatalf("victim shard %s owns none of the acked policies", victim)
	}
	if d := f.Degraded(victim); d != 0 {
		t.Fatalf("%d acked writes degraded to async before the kill; the drill requires strict semi-sync", d)
	}
	leaderSeq := victimInst.DBSeq()
	leaderVersion := victimInst.DBVersion()

	if err := f.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	// The corpse: a direct read against the dead endpoint fails at the
	// transport, not with a polite HTTP error.
	probe, err := f.NewStakeholderClient("probe")
	if err != nil {
		t.Fatal(err)
	}
	probeCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	_, err = probe.coreClient(f.Endpoint(victim)).ReadPolicy(probeCtx, acked[0])
	cancel()
	if err == nil {
		t.Fatal("read against killed shard succeeded")
	}

	if err := f.Promote(victim); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got := f.Epoch(); got != 2 {
		t.Fatalf("epoch after failover = %d, want 2", got)
	}

	// The replica the new primary booted from chain-verified everything
	// it applied, and held every acked commit at kill time.
	if oldFollower.Verified() == 0 {
		t.Fatal("promoted replica verified no entries")
	}
	if pos := oldFollower.Pos(); pos < leaderSeq {
		t.Fatalf("replica position %d behind acked leader seq %d: acked writes lost", pos, leaderSeq)
	}
	promoted := f.Instance(victim)
	if promoted == victimInst {
		t.Fatal("promotion did not produce a new instance")
	}
	if got := promoted.DBVersion(); got < leaderVersion {
		t.Fatalf("promoted version %d < leader version %d", got, leaderVersion)
	}

	// Zero acked writes lost, and the client re-routes on its own: its
	// first read of a victim-owned policy hits the dead endpoint, fails
	// at the transport, refreshes the document, verifies the bumped
	// epoch, and lands on the promoted replica.
	for _, name := range acked {
		p, err := cli.ReadPolicy(ctx, name)
		if err != nil {
			t.Fatalf("acked write %s lost after failover: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("read %s returned %s", name, p.Name)
		}
	}
	if cli.Epoch() != 2 {
		t.Fatalf("client epoch after failover = %d, want 2 (re-verified document)", cli.Epoch())
	}

	// The promoted primary is a full citizen: new writes land on it (and
	// replicate to its own new follower).
	post := pickOwned(f.Ring(), victim)
	if err := cli.CreatePolicy(ctx, testPolicy(post)); err != nil {
		t.Fatalf("write to promoted shard: %v", err)
	}
	if _, err := cli.ReadPolicy(ctx, post); err != nil {
		t.Fatalf("read back from promoted shard: %v", err)
	}
	if fo := f.Follower(victim); fo != nil {
		deadline := time.Now().Add(5 * time.Second)
		for fo.Pos() < f.Instance(victim).DBSeq() && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if fo.Pos() < f.Instance(victim).DBSeq() {
			t.Fatalf("new follower never caught up: pos %d, leader %d", fo.Pos(), f.Instance(victim).DBSeq())
		}
	}
}
