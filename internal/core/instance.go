// Package core implements the PALÆMON trust management service itself: the
// paper's primary contribution.
//
// An Instance runs inside a (simulated) SGX enclave, keeps its state in an
// encrypted embedded database, and exposes the operations the paper
// describes: policy CRUD guarded by a two-stage access control (client
// certificate pinning, then policy-board quorum, §III-C/§IV-E); application
// attestation and configuration delivery (§IV-A); expected-tag storage for
// rollback protection of application file systems (§III-D); and its own
// rollback protection through the monotonic-counter lifecycle protocol of
// Fig 6, which also enforces that at most one instance runs with a given
// identity (§IV-C).
package core

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"palaemon/internal/board"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/kvdb"
	"palaemon/internal/mcounter"
	"palaemon/internal/obs"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
)

// Buckets in the instance database.
const (
	bucketPolicies = "policies"
	bucketTags     = "tags"
	bucketMeta     = "meta"
)

// Errors returned by instance operations.
var (
	// ErrCounterMismatch reports the Fig 6 startup check failure: the
	// database version and the monotonic counter disagree — a rollback of
	// the database, an unclean shutdown (treated as an attack, §IV-D), or
	// a concurrent instance.
	ErrCounterMismatch = errors.New("core: database version does not match monotonic counter")
	// ErrSecondInstance reports that the post-increment check c == v+1
	// failed: another instance incremented the counter concurrently.
	ErrSecondInstance = errors.New("core: another instance is running with this identity")
	// ErrPolicyExists reports a create with a taken name.
	ErrPolicyExists = errors.New("core: policy name already exists")
	// ErrPolicyNotFound reports a missing policy.
	ErrPolicyNotFound = errors.New("core: policy not found")
	// ErrAccessDenied reports a client certificate mismatch.
	ErrAccessDenied = errors.New("core: client certificate does not match policy creator")
	// ErrBoardRejected reports a policy-board quorum failure.
	ErrBoardRejected = errors.New("core: policy board rejected the operation")
	// ErrAttestation reports application attestation failure.
	ErrAttestation = errors.New("core: application attestation failed")
	// ErrStrictRestart reports a strict-mode restart without a clean
	// previous exit (§III-D).
	ErrStrictRestart = errors.New("core: strict mode forbids restart after unclean exit")
	// ErrStaleTag reports a tag push from a session that is not current.
	ErrStaleTag = errors.New("core: tag push from stale session")
	// ErrDraining reports an instance that is shutting down.
	ErrDraining = errors.New("core: instance is draining")
	// ErrConflict reports that a policy changed concurrently between board
	// approval and the store — the caller should re-read and retry.
	ErrConflict = errors.New("core: policy changed concurrently")
)

// Options configures an Instance.
type Options struct {
	// Platform hosts the instance enclave.
	Platform *sgx.Platform
	// Binary is the PALÆMON binary (its MRE is the instance identity for
	// attestation). A default binary is used when empty.
	Binary sgx.Binary
	// DataDir stores the encrypted database.
	DataDir string
	// CounterName names the platform monotonic counter protecting the DB.
	CounterName string
	// Evaluator reaches policy-board approval services; nil disables board
	// checks (boards then must be empty).
	Evaluator *board.Evaluator
	// Clock defaults to the platform clock.
	Clock simclock.Clock
	// Recover acknowledges a fail-over: accept v < c by fast-forwarding the
	// version. The paper treats a crash as an attack; recovery is an
	// explicit operator decision, never automatic.
	Recover bool
	// Obs is the observability bundle (logger, metrics registry, audit
	// log). Nil disables instrumentation (the ablation baseline): logging
	// and audit become no-ops and only the cache collector registration is
	// skipped.
	Obs *obs.Obs
	// DBRetainEntries enables the kvdb committed-entry window that feeds
	// follower replication (DESIGN.md §14): positive is a cap, -1 the
	// default cap, 0 (the default) disables retention — standalone
	// instances pay nothing for the fleet machinery.
	DBRetainEntries int
	// ReplBarrier, when set, is called with the database commit sequence
	// after every applied mutation, BEFORE the result is returned to the
	// client. The fleet layer uses it as the semi-synchronous replication
	// barrier: block (bounded) until a follower has the seq, so an acked
	// write survives losing the primary. A returned error withholds the
	// acknowledgement — the client gets ErrReplUncertain instead of
	// success, because the fleet cannot promise the write survives the
	// in-progress failover.
	ReplBarrier func(seq uint64) error
	// DBKey presets the database encryption key minted into a fresh
	// identity instead of a random one. Promotion uses it: the follower
	// replica on disk is sealed under the follower's key, and the promoted
	// instance must open that database. Ignored when an identity already
	// exists on disk.
	DBKey *cryptoutil.Key
	// AdoptReplica acknowledges that DataDir holds a replicated database
	// whose version may be AHEAD of this platform's monotonic counter
	// (the counter never saw the leader's epochs). The startup protocol
	// then fast-forwards the counter to the database version — an explicit
	// operator/fleet decision for promotion, audited, never automatic;
	// without it v > c is refused as fabricated state.
	AdoptReplica bool
}

// identity is the sealed instance identity (§IV-B): the Ed25519 key pair the
// instance is known by, and the database encryption key.
type identity struct {
	Ed25519Private []byte            `json:"ed25519_private"`
	Ed25519Public  []byte            `json:"ed25519_public"`
	DBKey          cryptoutil.Key    `json:"db_key"`
	SealedOnMRE    string            `json:"sealed_on_mre"`
	Platform       string            `json:"platform"`
	Extra          map[string]string `json:"extra,omitempty"`
}

// session is one attested application connection.
type session struct {
	policyName  string
	serviceName string
	sessionKey  []byte
	epoch       uint64
}

// tagRecord is the stored rollback-protection state of one service.
type tagRecord struct {
	// Tag is the expected file-system tag.
	Tag string `json:"tag"`
	// Running marks an execution in progress.
	Running bool `json:"running"`
	// CleanExit marks that the last execution pushed its tag on exit.
	CleanExit bool `json:"clean_exit"`
	// Epoch increments per execution; tag pushes must carry the current
	// epoch so a zombie process cannot overwrite a successor's tags.
	Epoch uint64 `json:"epoch"`
}

// Instance is one running PALÆMON service.
//
// Concurrency: the database is internally synchronised, so the instance
// holds no global data lock. Lifecycle flags sit behind stateMu; attested
// sessions live in a striped table; and read-modify-write sequences are
// serialised per entity by striped locks (per policy name, per service tag
// record), so independent stakeholders never contend.
type Instance struct {
	platform *sgx.Platform
	enclave  *sgx.Enclave
	clock    simclock.Clock
	signer   *cryptoutil.Signer
	counter  mcounter.Counter
	eval     *board.Evaluator
	db       *kvdb.DB

	// stateMu guards only draining/closed.
	stateMu  sync.RWMutex
	draining bool
	closed   bool

	// sessions holds live attested application sessions, striped by token.
	sessions *sessionTable
	// policyLocks serialises per-policy-name read-modify-write (create
	// existence check, update revision bump, FSPF key mint).
	policyLocks stripedRW
	// tagLocks serialises per-(policy,service) tag-record sequences (epoch
	// bump at attestation, stale-push check). Taken after policyLocks where
	// both are needed.
	tagLocks stripedRW
	// pcache is the decode-once policy snapshot cache (policycache.go).
	// In-memory only: rebuilt empty by Open, so every restart — clean,
	// crashed, or -recover — starts cold and the Fig 6 v==c check never
	// competes with a warm cache.
	pcache *policyCache
	// watchers broadcasts per-policy change notifications for the v2
	// watch long-poll (watch.go); writers notify after invalidating the
	// cache entry.
	watchers *watchHub
	// drainCh is closed when the instance starts draining (or aborts), so
	// pending watch long-polls end promptly instead of stalling Shutdown.
	drainCh   chan struct{}
	drainOnce sync.Once
	// namesMu guards the memoized sorted policy-name listing (watch.go),
	// keyed by the kvdb commit sequence.
	namesMu     sync.Mutex
	namesSeq    uint64
	namesSorted []string

	// obs is the observability bundle; never nil (defaults to obs.Nop()),
	// with a nil-safe Audit inside. Core ops log at Info with the request
	// ID from the context and append security events to the audit chain.
	obs *obs.Obs

	// barrier is Options.ReplBarrier (nil when not in a fleet): invoked
	// with the commit sequence after every acknowledged mutation, before
	// the result reaches the client.
	barrier func(seq uint64) error

	// inflight counts requests for the Fig 6 drain. A plain counter with a
	// condition variable rather than a WaitGroup: exit notifications are
	// admitted while draining, and WaitGroup forbids Add racing a Wait at
	// zero. Arrivals increment under stateMu.RLock, so Shutdown can hold
	// stateMu to shut the door and then wait out the stragglers.
	inflightMu   sync.Mutex
	inflightCond *sync.Cond
	inflight     int
}

// DefaultBinary is the simulated PALÆMON enclave binary.
func DefaultBinary() sgx.Binary {
	return sgx.Binary{Name: "palaemon", Code: []byte("palaemon-tms-v1.0\x00" + licenseBanner)}
}

// licenseBanner pads the binary so its measurement is not trivially small.
const licenseBanner = "trust management service reference implementation"

// Open starts an instance: restores (or creates) the sealed identity, opens
// the encrypted database, and runs the Fig 6 startup protocol — requiring
// v == c, then incrementing c and verifying c == v+1 before serving.
func Open(opts Options) (*Instance, error) {
	if opts.Platform == nil {
		return nil, errors.New("core: platform is required")
	}
	if opts.Binary.Name == "" {
		opts.Binary = DefaultBinary()
	}
	if opts.CounterName == "" {
		opts.CounterName = "palaemon-db"
	}
	if opts.Clock == nil {
		opts.Clock = opts.Platform.Clock()
	}

	enclave, err := opts.Platform.Launch(opts.Binary, sgx.LaunchOptions{HeapBytes: 16 << 20, AllowPaging: true})
	if err != nil {
		return nil, fmt.Errorf("core: launch enclave: %w", err)
	}

	id, err := loadOrCreateIdentity(opts.Platform, enclave.MRE(), opts.DataDir, opts.DBKey)
	if err != nil {
		enclave.Destroy()
		return nil, err
	}
	signer, err := signerFromIdentity(id)
	if err != nil {
		enclave.Destroy()
		return nil, err
	}

	db, err := kvdb.Open(opts.DataDir, id.DBKey, kvdb.Options{
		RetainEntries: opts.DBRetainEntries,
	})
	if err != nil {
		enclave.Destroy()
		return nil, fmt.Errorf("core: open database: %w", err)
	}

	counter := mcounter.NewPlatform(opts.Platform, opts.CounterName)

	inst := &Instance{
		platform: opts.Platform,
		enclave:  enclave,
		clock:    opts.Clock,
		signer:   signer,
		counter:  counter,
		eval:     opts.Evaluator,
		db:       db,
		sessions: newSessionTable(),
		pcache:   newPolicyCache(),
		watchers: newWatchHub(),
		drainCh:  make(chan struct{}),
		obs:      opts.Obs.Or(),
		barrier:  opts.ReplBarrier,
	}
	inst.inflightCond = sync.NewCond(&inst.inflightMu)
	if opts.Obs != nil {
		registerInstanceCollectors(opts.Obs.Metrics, inst)
	}

	if err := inst.startupProtocol(opts.Recover, opts.AdoptReplica); err != nil {
		db.Close()
		enclave.Destroy()
		return nil, err
	}
	return inst, nil
}

// startupProtocol is the Fig 6 sequence, with one fleet extension: with
// adoptReplica, a database version AHEAD of the counter is adopted by
// fast-forwarding the counter (promotion of a replicated store onto a
// platform whose counter never saw the leader's epochs) instead of being
// refused as fabricated. The fast-forward is audited, and the rest of the
// protocol — increment, c == v+1, single-instance check — runs unchanged
// on the adopted epoch.
func (i *Instance) startupProtocol(recover, adoptReplica bool) error {
	v := i.db.Version()
	c, err := i.counter.Value()
	if err != nil {
		return fmt.Errorf("core: read counter: %w", err)
	}
	if adoptReplica && v > c {
		from := c
		for c < v {
			c, err = i.counter.Increment()
			if err != nil {
				return fmt.Errorf("core: adopt replica version: %w", err)
			}
		}
		_ = i.obs.Audit.Append(obs.AuditEvent{
			Event:   "replica_adopted",
			Outcome: "ok",
			Detail:  fmt.Sprintf("counter fast-forwarded %d -> %d to adopt replicated database", from, c),
		})
	}
	if v != c {
		if !recover {
			return fmt.Errorf("%w: v=%d c=%d", ErrCounterMismatch, v, c)
		}
		if v > c {
			// The DB claims a future the counter never saw: fabricated
			// state. Recovery must not accept it.
			return fmt.Errorf("%w: v=%d ahead of c=%d (fabricated state)", ErrCounterMismatch, v, c)
		}
		// Operator-acknowledged fail-over: adopt the counter's epoch.
		if err := i.db.SetVersion(c); err != nil {
			return fmt.Errorf("core: recover version: %w", err)
		}
		v = c
	}
	newC, err := i.counter.Increment()
	if err != nil {
		return fmt.Errorf("core: increment counter: %w", err)
	}
	if newC != v+1 {
		// Someone else bumped the counter between our read and increment:
		// a second instance is starting with the same identity.
		return fmt.Errorf("%w: c=%d after increment, want %d", ErrSecondInstance, newC, v+1)
	}
	// The database now trails the counter (v < c) until graceful shutdown,
	// which is what blocks crash-restarts (§IV-D).
	return nil
}

// Shutdown drains in-flight requests, persists v = c, and closes the
// database — after which a restart passes the startup check again.
func (i *Instance) Shutdown(ctx context.Context) error {
	i.stateMu.Lock()
	if i.closed {
		i.stateMu.Unlock()
		return nil
	}
	i.draining = true
	i.stateMu.Unlock()
	// Wake pending watch long-polls: they are not counted in-flight (a
	// 30 s poll must not stall the drain) but must observe the shutdown.
	i.drainOnce.Do(func() { close(i.drainCh) })

	// waitQuiesce blocks (bounded by ctx) until no request is in flight.
	// On ctx expiry the helper goroutine lingers until the count next hits
	// zero, then exits.
	waitQuiesce := func() error {
		done := make(chan struct{})
		go func() {
			i.inflightMu.Lock()
			for i.inflight > 0 {
				i.inflightCond.Wait()
			}
			i.inflightMu.Unlock()
			close(done)
		}()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("core: drain: %w", ctx.Err())
		}
	}
	// Exit notifications are admitted during drain, so stragglers can keep
	// arriving while the count drains. Holding stateMu blocks new arrivals
	// (begin increments under stateMu.RLock); if any slipped in before the
	// lock, release and wait again — each wait stays ctx-bounded so a
	// wedged exit cannot hang Shutdown while it holds the lock.
	for {
		i.stateMu.Lock()
		if i.closed {
			i.stateMu.Unlock()
			return nil
		}
		i.inflightMu.Lock()
		n := i.inflight
		i.inflightMu.Unlock()
		if n == 0 {
			break
		}
		i.stateMu.Unlock()
		if err := waitQuiesce(); err != nil {
			return err
		}
	}
	defer i.stateMu.Unlock()
	// From here on resources are released even when a step fails: a failed
	// graceful shutdown degrades to crash semantics (restart needs
	// explicit recovery), but the WAL fd must never leak behind a
	// permanently-draining instance.
	c, err := i.counter.Value()
	if err != nil {
		i.releaseLocked()
		return fmt.Errorf("core: read counter at shutdown: %w", err)
	}
	if err := i.db.SetVersion(c); err != nil {
		i.releaseLocked()
		return fmt.Errorf("core: persist version: %w", err)
	}
	if err := i.db.Close(); err != nil {
		i.closed = true
		i.enclave.Destroy()
		return fmt.Errorf("core: close database: %w", err)
	}
	i.closed = true
	i.enclave.Destroy()
	return nil
}

// releaseLocked force-releases the database and enclave after a failed
// graceful shutdown; callers hold stateMu.
func (i *Instance) releaseLocked() {
	i.closed = true
	_ = i.db.Close()
	i.enclave.Destroy()
}

// Abort simulates a crash: the enclave disappears without updating v. A
// subsequent Open fails the v == c check unless Recover is acknowledged.
func (i *Instance) Abort() {
	i.stateMu.Lock()
	defer i.stateMu.Unlock()
	if i.closed {
		return
	}
	i.closed = true
	i.drainOnce.Do(func() { close(i.drainCh) })
	_ = i.db.Close() // WAL contents remain; version is NOT advanced
	i.enclave.Destroy()
}

// begin registers a request; it fails when draining.
func (i *Instance) begin() error { return i.beginRequest(false) }

// beginExit registers an exit notification, which drain still admits
// (Fig 6: "existing requests are still processed").
func (i *Instance) beginExit() error { return i.beginRequest(true) }

func (i *Instance) beginRequest(allowDraining bool) error {
	i.stateMu.RLock()
	defer i.stateMu.RUnlock()
	if i.closed || (i.draining && !allowDraining) {
		return ErrDraining
	}
	i.inflightMu.Lock()
	i.inflight++
	i.inflightMu.Unlock()
	return nil
}

func (i *Instance) end() {
	i.inflightMu.Lock()
	i.inflight--
	if i.inflight == 0 {
		i.inflightCond.Broadcast()
	}
	i.inflightMu.Unlock()
}

// PublicKey returns the instance identity key (stable across restarts on
// the same platform, §IV-B).
func (i *Instance) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), i.signer.Public...)
}

// Signer exposes the identity signer for the attestation handshake.
func (i *Instance) Signer() *cryptoutil.Signer { return i.signer }

// MRE returns the instance's enclave measurement.
func (i *Instance) MRE() sgx.Measurement { return i.enclave.MRE() }

// Enclave exposes the instance enclave (for quotes and cost accounting).
func (i *Instance) Enclave() *sgx.Enclave { return i.enclave }

// DBVersion exposes the version for tests and diagnostics.
func (i *Instance) DBVersion() uint64 { return i.db.Version() }

// --- Identity management ----------------------------------------------------

// sealedIdentityKey is the meta key under which the sealed identity is
// stored on disk (outside the DB: it must be readable before the DB key is
// known). We keep it in a file next to the DB.
const sealedIdentityFile = "identity.sealed"

func loadOrCreateIdentity(p *sgx.Platform, mre sgx.Measurement, dir string, presetDBKey *cryptoutil.Key) (identity, error) {
	path := dir + "/" + sealedIdentityFile
	raw, err := readFileIfExists(path)
	if err != nil {
		return identity{}, err
	}
	if raw != nil {
		pt, err := p.UnsealWithMRE(raw, mre)
		if err != nil {
			return identity{}, fmt.Errorf("core: unseal identity: %w", err)
		}
		var id identity
		if err := json.Unmarshal(pt, &id); err != nil {
			return identity{}, fmt.Errorf("core: decode identity: %w", err)
		}
		return id, nil
	}
	// First start on this platform: mint identity and seal it to our MRE,
	// so only the same PALÆMON binary on the same platform can recover it.
	signer, err := cryptoutil.NewSigner()
	if err != nil {
		return identity{}, err
	}
	dbKey, err := cryptoutil.NewKey()
	if err != nil {
		return identity{}, err
	}
	if presetDBKey != nil {
		// Promotion: the database on disk is a replica sealed under the
		// follower's key; the fresh identity must carry that key or the
		// instance cannot read its own store.
		dbKey = *presetDBKey
	}
	id := identity{
		Ed25519Public: signer.Public,
		DBKey:         dbKey,
		SealedOnMRE:   mre.String(),
		Platform:      string(p.ID()),
	}
	id.Ed25519Private = marshalSigner(signer)
	pt, err := json.Marshal(id)
	if err != nil {
		return identity{}, fmt.Errorf("core: encode identity: %w", err)
	}
	sealed, err := p.SealToMRE(pt, mre)
	if err != nil {
		return identity{}, fmt.Errorf("core: seal identity: %w", err)
	}
	if err := writeFileAtomic(path, sealed); err != nil {
		return identity{}, err
	}
	return id, nil
}
