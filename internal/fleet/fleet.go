package fleet

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"palaemon/internal/ca"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fault"
	"palaemon/internal/ias"
	"palaemon/internal/obs"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
	"palaemon/internal/wire"
)

// Options configures a fleet.
type Options struct {
	// Shards is the shard count (default 3).
	Shards int
	// Replication is the number of copies of each shard's data: 1 primary
	// plus Replication-1 followers. Default 2; 1 disables followers.
	Replication int
	// VNodes is the virtual-node count per shard (default DefaultVNodes).
	VNodes int
	// DataDir holds every shard's stores (required).
	DataDir string
	// BarrierTimeout bounds the semi-sync replication barrier (default
	// DefaultBarrierTimeout); past it a write degrades to async, counted.
	BarrierTimeout time.Duration
	// Observe gives every shard its own observability bundle (per-shard
	// RED metrics via the server middleware, plus the fleet collector:
	// replication lag, verified-entry and barrier-degradation counters,
	// document epoch). Off, shards run uninstrumented.
	Observe bool
}

// Fleet is an in-process sharded PALÆMON deployment: N shard primaries
// (each a fully attested instance + server), a chain-verified WAL
// follower per shard, one CA and IAS shared by all of them, and the
// signed discovery document tying it together. It is the harness behind
// the kill-a-shard stress scenario and the fleet tests, and the model
// for a real multi-process deployment (DESIGN.md §14).
type Fleet struct {
	opts Options
	ias  *ias.Service
	auth *ca.Authority
	// caPlatform hosts the CA enclave; it outlives any shard platform.
	caPlatform *sgx.Platform
	docSigner  *cryptoutil.Signer
	ring       *Ring

	mu     sync.Mutex
	epoch  uint64            // palaemon:guardedby mu
	doc    *wire.FleetDoc    // palaemon:guardedby mu
	shards map[string]*Shard // palaemon:guardedby mu
	closed bool              // palaemon:guardedby mu
}

// Shard is one named position on the ring. Its name is permanent; the
// running state behind it (instance, server, follower) is replaced
// wholesale on promotion.
type Shard struct {
	name    string
	baseDir string

	state  *shardState // palaemon:guardedby mu
	killed bool        // palaemon:guardedby mu
	gen    int         // palaemon:guardedby mu
}

// shardState is one generation of a shard: immutable once installed, so
// readers only need the fleet lock long enough to copy the pointer.
type shardState struct {
	platform *sgx.Platform
	inst     *core.Instance
	server   *core.Server
	listener *fault.Listener
	hub      *replHub
	bundle   *obs.Obs
	// follower is nil when Options.Replication == 1.
	follower   *Follower
	followerID core.ClientID
}

// New boots the fleet: per-shard platform + instance + server, shared
// IAS and CA, discovery document at epoch 1, followers tailing.
func New(opts Options) (*Fleet, error) {
	if opts.DataDir == "" {
		return nil, errors.New("fleet: DataDir is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 3
	}
	if opts.Replication <= 0 {
		opts.Replication = 2
	}
	if opts.VNodes <= 0 {
		opts.VNodes = DefaultVNodes
	}
	if opts.BarrierTimeout <= 0 {
		opts.BarrierTimeout = DefaultBarrierTimeout
	}

	names := make([]string, opts.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i+1)
	}
	ring, err := NewRing(names, opts.VNodes)
	if err != nil {
		return nil, err
	}
	docSigner, err := cryptoutil.NewSigner()
	if err != nil {
		return nil, fmt.Errorf("fleet: mint document key: %w", err)
	}
	iasSvc, err := ias.New(simclock.Wall{}, time.Millisecond)
	if err != nil {
		return nil, err
	}
	caP, err := newPlatform()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		opts:       opts,
		ias:        iasSvc,
		caPlatform: caP,
		docSigner:  docSigner,
		ring:       ring,
		shards:     make(map[string]*Shard, opts.Shards),
	}

	// Phase 1: platforms + instances (the CA needs an instance MRE).
	for _, name := range names {
		sh := &Shard{name: name, baseDir: filepath.Join(opts.DataDir, name)}
		st, err := f.openPrimary(sh.name, filepath.Join(sh.baseDir, "primary"))
		if err != nil {
			f.Close()
			return nil, err
		}
		sh.state = st
		f.shards[name] = sh
	}
	first := f.shards[names[0]].state.inst
	auth, err := ca.New(caP, ca.Config{
		TrustedMREs:  []sgx.Measurement{first.MRE()},
		CertValidity: time.Hour,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.auth = auth

	// Phase 2: servers, then followers (a follower dials its leader).
	for _, name := range names {
		sh := f.shards[name]
		if err := f.serveShard(sh.name, sh.state); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: serve %s: %w", name, err)
		}
		if opts.Replication >= 2 {
			if err := f.attachFollower(sh.name, sh.baseDir, sh.state, 1); err != nil {
				f.Close()
				return nil, fmt.Errorf("fleet: follower for %s: %w", name, err)
			}
		}
	}

	// Phase 3: publish epoch 1 and start the tails.
	f.mu.Lock()
	f.epoch = 1
	err = f.publishLocked()
	f.mu.Unlock()
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, name := range names {
		if fo := f.shards[name].state.follower; fo != nil {
			fo.Start()
		}
	}
	return f, nil
}

func newPlatform() (*sgx.Platform, error) {
	// No counter rate limit: the fleet harness measures PALÆMON, not the
	// 50 ms SGX counter throttle (same choice as the stress harness).
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	return sgx.NewPlatform(sgx.Options{Model: model})
}

// openPrimary boots a shard primary: fresh platform, instance with the
// entry-retention window and the semi-sync barrier wired to a new hub.
func (f *Fleet) openPrimary(name, dir string) (*shardState, error) {
	p, err := newPlatform()
	if err != nil {
		return nil, err
	}
	f.ias.RegisterPlatform(p.ID(), p.QuotingKey())
	st := &shardState{platform: p, hub: newReplHub(f.opts.BarrierTimeout)}
	if f.opts.Observe {
		st.bundle = obs.New(nil)
	}
	st.inst, err = core.Open(core.Options{
		Platform:        p,
		DataDir:         dir,
		DBRetainEntries: -1,
		ReplBarrier:     st.hub.barrier,
		Obs:             st.bundle,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: open %s: %w", name, err)
	}
	return st, nil
}

// reopenReplica turns a detached follower replica into a shard primary:
// fresh platform (whose counter never saw the leader's epochs — exactly
// what AdoptReplica exists for), the follower's database key, and the
// Fig. 6 startup protocol with the adoption extension.
func (f *Fleet) reopenReplica(name, dir string, key cryptoutil.Key) (*shardState, error) {
	p, err := newPlatform()
	if err != nil {
		return nil, err
	}
	f.ias.RegisterPlatform(p.ID(), p.QuotingKey())
	st := &shardState{platform: p, hub: newReplHub(f.opts.BarrierTimeout)}
	if f.opts.Observe {
		st.bundle = obs.New(nil)
	}
	st.inst, err = core.Open(core.Options{
		Platform:        p,
		DataDir:         dir,
		DBRetainEntries: -1,
		ReplBarrier:     st.hub.barrier,
		Obs:             st.bundle,
		DBKey:           &key,
		AdoptReplica:    true,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: promote %s: %w", name, err)
	}
	return st, nil
}

// serveShard starts the shard's REST endpoint with the fleet hooks and a
// fault listener below TLS (the kill switch).
func (f *Fleet) serveShard(name string, st *shardState) error {
	server, err := core.Serve(st.inst, core.ServerOptions{
		Authority: f.auth,
		IAS:       f.ias,
		Obs:       st.bundle,
		Fleet: &core.FleetHooks{
			Doc:         f.Doc,
			Owns:        func(policy string) (bool, string) { return f.owns(name, policy) },
			ReplAllowed: func(id core.ClientID) bool { return f.replAllowed(name, id) },
		},
		WrapListener: func(ln net.Listener) net.Listener {
			st.listener = fault.WrapListener(ln)
			return st.listener
		},
	})
	if err != nil {
		return err
	}
	st.server = server
	if st.bundle != nil {
		f.registerShardCollector(name, st)
	}
	return nil
}

// attachFollower creates (but does not start) the shard's follower.
func (f *Fleet) attachFollower(name, baseDir string, st *shardState, gen int) error {
	cert, id, err := core.NewClientCertificate(name + "-follower")
	if err != nil {
		return err
	}
	cli := core.NewClient(core.ClientOptions{
		BaseURL:     st.server.URL(),
		Roots:       f.auth.Root().Pool(),
		Certificate: cert,
		Timeout:     60 * time.Second,
	})
	hub := st.hub
	fo, err := NewFollower(FollowerOptions{
		Name:   name,
		Dir:    filepath.Join(baseDir, fmt.Sprintf("replica-%d", gen)),
		Client: cli,
		OnAck:  hub.onAck,
	})
	if err != nil {
		return err
	}
	st.follower = fo
	st.followerID = id
	hub.register()
	return nil
}

// owns implements FleetHooks.Owns for one shard.
func (f *Fleet) owns(shard, policy string) (bool, string) {
	owner := f.ring.Owner(policy)
	if owner == shard {
		return true, ""
	}
	return false, f.Endpoint(owner)
}

// replAllowed gates the replication feed to the shard's own follower.
func (f *Fleet) replAllowed(shard string, id core.ClientID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.shards[shard]
	if sh == nil || sh.state.follower == nil {
		return false
	}
	return sh.state.followerID == id
}

// publishLocked rebuilds and re-signs the discovery document at the
// current epoch. Callers hold f.mu and have already bumped f.epoch.
//
// palaemon:locks mu
func (f *Fleet) publishLocked() error {
	doc := &wire.FleetDoc{
		Epoch:       f.epoch,
		Replication: f.opts.Replication,
		VNodes:      f.opts.VNodes,
	}
	names := make([]string, 0, len(f.shards))
	for name := range f.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sh := f.shards[name]
		fp := sha256.Sum256(sh.state.inst.PublicKey())
		followers := 0
		if sh.state.follower != nil {
			followers = 1
		}
		doc.Shards = append(doc.Shards, wire.FleetShard{
			Name:         name,
			Endpoint:     sh.state.server.URL(),
			QuotingKeyFP: hex.EncodeToString(fp[:]),
			Followers:    followers,
		})
	}
	if err := SignDoc(f.docSigner, doc); err != nil {
		return err
	}
	f.doc = doc
	return nil
}

// Doc returns the current signed discovery document.
func (f *Fleet) Doc() *wire.FleetDoc {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doc
}

// DocKey returns the fleet document public key — the out-of-band trust
// anchor clients verify discovery documents against.
func (f *Fleet) DocKey() ed25519.PublicKey { return f.docSigner.Public }

// Ring returns the fleet's routing ring.
func (f *Fleet) Ring() *Ring { return f.ring }

// Authority returns the fleet CA (clients trust its root).
func (f *Fleet) Authority() *ca.Authority { return f.auth }

// Epoch returns the current document epoch.
func (f *Fleet) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Shards returns the shard names, sorted.
func (f *Fleet) Shards() []string { return f.ring.Shards() }

// Endpoint returns a shard's current base URL ("" for unknown shards).
func (f *Fleet) Endpoint(shard string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.shards[shard]
	if sh == nil {
		return ""
	}
	return sh.state.server.URL()
}

// Instance returns a shard's current primary instance.
func (f *Fleet) Instance(shard string) *core.Instance {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sh := f.shards[shard]; sh != nil {
		return sh.state.inst
	}
	return nil
}

// Follower returns a shard's follower (nil without replication).
func (f *Fleet) Follower(shard string) *Follower {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sh := f.shards[shard]; sh != nil {
		return sh.state.follower
	}
	return nil
}

// Observability returns a shard's observability bundle (nil unless
// Options.Observe).
func (f *Fleet) Observability(shard string) *obs.Obs {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sh := f.shards[shard]; sh != nil {
		return sh.state.bundle
	}
	return nil
}

// Degraded returns how many acked writes on the shard degraded to
// asynchronous replication (barrier timeouts).
func (f *Fleet) Degraded(shard string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sh := f.shards[shard]; sh != nil {
		return sh.state.hub.Degraded()
	}
	return 0
}

// NewStakeholderClient mints a stakeholder identity and a fleet-routing
// client for it.
func (f *Fleet) NewStakeholderClient(name string) (*Client, error) {
	cert, _, err := core.NewClientCertificate(name)
	if err != nil {
		return nil, err
	}
	names := f.Shards()
	seeds := make([]string, 0, len(names))
	for _, name := range names {
		seeds = append(seeds, f.Endpoint(name))
	}
	return NewClient(ClientOptions{
		Seeds:       seeds,
		DocKey:      f.DocKey(),
		Roots:       f.auth.Root().Pool(),
		Certificate: cert,
	})
}

// KillShard kills a shard's primary the unpolite way: the follower's
// tail is stopped (its replica keeps every acknowledged write — the
// barrier saw to that), the listener starts refusing connections below
// TLS, and the instance aborts without draining. Clients see connection
// failures, not graceful errors; the discovery document does NOT change
// — detecting the corpse and re-routing after Promote is their problem.
func (f *Fleet) KillShard(name string) error {
	f.mu.Lock()
	sh := f.shards[name]
	if sh == nil {
		f.mu.Unlock()
		return fmt.Errorf("fleet: unknown shard %q", name)
	}
	if sh.killed {
		f.mu.Unlock()
		return fmt.Errorf("fleet: shard %q is already dead", name)
	}
	sh.killed = true
	st := sh.state
	f.mu.Unlock()

	// Order matters for the zero-loss contract. Seal the barrier FIRST:
	// from this instant, any write the follower has not confirmed fails
	// with repl_uncertain instead of being acknowledged — the only copies
	// such a write could have are on the primary being killed. Only then
	// detach the follower (its replica keeps every acknowledged write),
	// cut the network, and abort the instance without draining.
	st.hub.seal()
	if st.follower != nil {
		st.follower.Stop()
	}
	if st.listener != nil {
		st.listener.SetMode(fault.Refuse)
	}
	st.inst.Abort()
	return nil
}

// Promote turns the killed shard's follower replica into the new
// primary: the replica store is detached (fsynced, closed), reopened as
// an instance on a FRESH platform under the follower's own database key
// with AdoptReplica (the new platform's counter fast-forwards to the
// replica's version — audited), served at a new endpoint, given a new
// follower, and the discovery document is re-signed at epoch+1.
func (f *Fleet) Promote(name string) error {
	f.mu.Lock()
	sh := f.shards[name]
	if sh == nil {
		f.mu.Unlock()
		return fmt.Errorf("fleet: unknown shard %q", name)
	}
	if !sh.killed {
		f.mu.Unlock()
		return fmt.Errorf("fleet: shard %q is alive; refusing to promote over a live primary", name)
	}
	old := sh.state
	sh.gen++
	gen := sh.gen
	baseDir := sh.baseDir
	f.mu.Unlock()

	if old.follower == nil {
		return fmt.Errorf("fleet: shard %q has no follower to promote", name)
	}
	if err := old.follower.Detach(); err != nil {
		return fmt.Errorf("fleet: detach follower of %s: %w", name, err)
	}
	// The old primary's server is dead weight now; reap it quietly.
	if old.server != nil {
		_ = old.server.Close()
	}

	st, err := f.reopenReplica(name, old.follower.Dir(), old.follower.Key())
	if err != nil {
		return err
	}
	if err := f.serveShard(name, st); err != nil {
		return fmt.Errorf("fleet: serve promoted %s: %w", name, err)
	}
	if f.opts.Replication >= 2 {
		if err := f.attachFollower(name, baseDir, st, gen+1); err != nil {
			return fmt.Errorf("fleet: new follower for promoted %s: %w", name, err)
		}
	}

	f.mu.Lock()
	sh.state = st
	sh.killed = false
	f.epoch++
	err = f.publishLocked()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	if st.follower != nil {
		st.follower.Start()
	}
	return nil
}

// Close tears the fleet down: followers, servers, instances, CA.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	states := make([]*shardState, 0, len(f.shards))
	killed := make([]bool, 0, len(f.shards))
	for _, sh := range f.shards {
		states = append(states, sh.state)
		killed = append(killed, sh.killed)
	}
	f.mu.Unlock()

	for i, st := range states {
		if st == nil {
			continue
		}
		if st.follower != nil {
			_ = st.follower.Detach()
		}
		if st.server != nil {
			_ = st.server.Close()
		}
		if st.inst != nil {
			if killed[i] {
				st.inst.Abort() // idempotent; already dead
			} else {
				_ = st.inst.Shutdown(context.Background())
			}
		}
	}
	if f.auth != nil {
		f.auth.Close()
	}
}
