package stress

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"palaemon/internal/fleet"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
)

// FleetKillOptions shapes the kill-a-shard failover drill.
type FleetKillOptions struct {
	// DataDir holds every shard's stores (required).
	DataDir string
	// Shards is the fleet size (default 3).
	Shards int
	// Writers is the concurrent stakeholder count (default 6).
	Writers int
	// Warmup is the number of policies each writer creates before the
	// kill (default 8).
	Warmup int
	// KillWindow is how long the background load runs against the dead
	// shard before promotion (default 300ms) — the outage clients must
	// ride out.
	KillWindow time.Duration
}

func (o *FleetKillOptions) defaults() {
	if o.Shards <= 0 {
		o.Shards = 3
	}
	if o.Writers <= 0 {
		o.Writers = 6
	}
	if o.Warmup <= 0 {
		o.Warmup = 8
	}
	if o.KillWindow <= 0 {
		o.KillWindow = 300 * time.Millisecond
	}
}

// FleetReport is the failover drill's outcome; CI serialises it as the
// fleet job artifact. The invariants the drill exists to prove:
// LostWrites == 0 (every acknowledged write survived the failover) and
// ReplicaVerified > 0 (the promoted replica chain-verified its feed).
type FleetReport struct {
	Shards      int    `json:"shards"`
	Replication int    `json:"replication"`
	Writers     int    `json:"writers"`
	Victim      string `json:"victim"`
	// Acked counts writes acknowledged to clients across the whole run,
	// warmup and failover window included; AckedVictim is the subset
	// owned by the killed shard.
	Acked       int `json:"acked"`
	AckedVictim int `json:"acked_victim"`
	// LostWrites counts acked policies unreadable after failover. The
	// drill fails unless this is zero.
	LostWrites int `json:"lost_writes"`
	// ReplicaVerified is how many WAL entries the promoted replica
	// chain-verified and applied before taking over.
	ReplicaVerified uint64 `json:"replica_verified"`
	// Degraded counts acked writes that timed out at the semi-sync
	// barrier on the victim before the kill (its async exposure).
	Degraded uint64 `json:"degraded"`
	// TransientErrors counts client operations that failed during the
	// outage window — expected, and excluded from Acked.
	TransientErrors int    `json:"transient_errors"`
	EpochBefore     uint64 `json:"epoch_before"`
	EpochAfter      uint64 `json:"epoch_after"`
	// PostFailoverOps counts writes acknowledged by the promoted shard.
	PostFailoverOps int   `json:"post_failover_ops"`
	DurationMS      int64 `json:"duration_ms"`
}

// Err returns nil when the drill's invariants held.
func (r *FleetReport) Err() error {
	var errs []error
	if r.LostWrites > 0 {
		errs = append(errs, fmt.Errorf("stress: %d acknowledged writes lost in failover", r.LostWrites))
	}
	if r.ReplicaVerified == 0 {
		errs = append(errs, errors.New("stress: promoted replica chain-verified no entries"))
	}
	if r.EpochAfter <= r.EpochBefore {
		errs = append(errs, fmt.Errorf("stress: discovery epoch did not advance (%d -> %d)",
			r.EpochBefore, r.EpochAfter))
	}
	if r.PostFailoverOps == 0 {
		errs = append(errs, errors.New("stress: promoted shard acknowledged no writes"))
	}
	return errors.Join(errs...)
}

// fleetWriter is one stakeholder identity driving the fleet.
type fleetWriter struct {
	id  int
	cli *fleet.Client

	mu    sync.Mutex
	acked []string // palaemon:guardedby mu
}

// ackedNames snapshots the acked list; safe while writers still run.
func (w *fleetWriter) ackedNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.acked...)
}

func (w *fleetWriter) ack(name string) {
	w.mu.Lock()
	w.acked = append(w.acked, name)
	w.mu.Unlock()
}

// RunFleetKillShard boots a replicated fleet, loads it, kills the shard
// owning the most data mid-load, promotes its follower, and verifies
// the zero-loss contract: every write any client was told succeeded is
// readable from the promoted fleet.
func RunFleetKillShard(opts FleetKillOptions) (*FleetReport, error) {
	opts.defaults()
	start := time.Now()
	f, err := fleet.New(fleet.Options{
		Shards:      opts.Shards,
		Replication: 2,
		DataDir:     opts.DataDir,
		Observe:     true,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	appBinary := sgx.Binary{Name: "fleet-stress-app", Code: []byte("fleet-stress-v1")}
	newPolicy := func(name string) *policy.Policy {
		return &policy.Policy{
			Name: name,
			Services: []policy.Service{{
				Name:       "app",
				Command:    "serve --token $$api_token",
				MREnclaves: []sgx.Measurement{appBinary.Measure()},
			}},
			Secrets: []policy.Secret{{Name: "api_token", Type: policy.SecretRandom}},
		}
	}

	writers := make([]*fleetWriter, opts.Writers)
	for i := range writers {
		cli, err := f.NewStakeholderClient(fmt.Sprintf("writer-%d", i))
		if err != nil {
			return nil, err
		}
		writers[i] = &fleetWriter{id: i, cli: cli}
	}
	ctx := context.Background()

	// Warmup: every writer spreads policies across the ring; each ack is
	// a promise the failover must keep.
	var warmupErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, w := range writers {
		wg.Add(1)
		go func(w *fleetWriter) {
			defer wg.Done()
			for i := 0; i < opts.Warmup; i++ {
				name := fmt.Sprintf("w%d-warm-%d", w.id, i)
				if err := w.cli.CreatePolicy(ctx, newPolicy(name)); err != nil {
					mu.Lock()
					warmupErr = fmt.Errorf("stress: warmup create %s: %w", name, err)
					mu.Unlock()
					return
				}
				w.ack(name)
			}
		}(w)
	}
	wg.Wait()
	if warmupErr != nil {
		return nil, warmupErr
	}

	// The victim is the shard owning the most acked policies — killing
	// the busiest shard maximises what the failover must not lose.
	owned := map[string]int{}
	for _, w := range writers {
		for _, name := range w.ackedNames() {
			owned[f.Ring().Owner(name)]++
		}
	}
	victim := f.Shards()[0]
	for shard, n := range owned {
		if n > owned[victim] {
			victim = shard
		}
	}
	report := &FleetReport{
		Shards:      opts.Shards,
		Replication: 2,
		Writers:     opts.Writers,
		Victim:      victim,
		AckedVictim: owned[victim],
		EpochBefore: f.Epoch(),
		Degraded:    f.Degraded(victim),
	}
	replica := f.Follower(victim)

	// Background load straddling the kill: writers keep creating under a
	// per-op deadline; failures during the outage are transient errors,
	// successes are acks the zero-loss check covers like any other.
	var transient atomic.Int64
	stop := make(chan struct{})
	for _, w := range writers {
		wg.Add(1)
		go func(w *fleetWriter) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("w%d-live-%d", w.id, i)
				opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
				err := w.cli.CreatePolicy(opCtx, newPolicy(name))
				cancel()
				if err != nil {
					transient.Add(1)
					continue
				}
				w.ack(name)
			}
		}(w)
	}

	time.Sleep(opts.KillWindow / 2)
	if err := f.KillShard(victim); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	time.Sleep(opts.KillWindow)
	if err := f.Promote(victim); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	time.Sleep(opts.KillWindow)
	close(stop)
	wg.Wait()

	report.TransientErrors = int(transient.Load())
	report.EpochAfter = f.Epoch()
	report.ReplicaVerified = replica.Verified()

	// The zero-loss audit: read back every acknowledged policy with its
	// creator's client against the post-failover fleet.
	for _, w := range writers {
		for _, name := range w.ackedNames() {
			report.Acked++
			if _, err := w.cli.ReadPolicy(ctx, name); err != nil {
				report.LostWrites++
			}
		}
	}

	// The promoted shard must be a working primary, not a read-only relic.
	post := writers[0]
	for i := 0; ; i++ {
		name := fmt.Sprintf("post-%d", i)
		if f.Ring().Owner(name) != victim {
			continue
		}
		if err := post.cli.CreatePolicy(ctx, newPolicy(name)); err != nil {
			return nil, fmt.Errorf("stress: post-failover write to %s: %w", victim, err)
		}
		report.PostFailoverOps++
		if report.PostFailoverOps >= 3 {
			break
		}
	}
	report.DurationMS = time.Since(start).Milliseconds()
	return report, nil
}
