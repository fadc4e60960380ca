package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"palaemon/internal/board"
	"palaemon/internal/kvdb"
	"palaemon/internal/policy"
	"palaemon/internal/wire"
)

// This file is the read-side counterpart of the write-path scaling work
// (WAL group commit, striped locks, DESIGN.md §6): a versioned,
// decode-once policy cache. Every read-side hot path — application
// attestation (Fig 8), secret retrieval (Fig 12), policy reads — used to
// pay a kvdb.Get byte copy plus a full json.Unmarshal of the policy per
// request, and resolvePolicy re-decoded every imported exporter on top.
// The cache turns those into a map lookup of an immutable decoded
// snapshot with the release templates already substituted.
//
// Coherence rules (DESIGN.md §8):
//
//   - A snapshot is populated on miss while holding the per-policy-name
//     stripe lock (read mode suffices), and every writer — putPolicy,
//     DeletePolicy's record removal — invalidates the entry while holding
//     the same stripe lock in write mode, after the database accepted the
//     mutation and before the operation acks. A populate therefore either
//     completes strictly before the write (and is invalidated by it) or
//     starts strictly after (and decodes the new bytes): a present entry
//     ALWAYS equals the currently stored policy.
//   - Because of that invariant, reading a present entry without the
//     stripe lock is a linearizable point read — exactly the guarantee
//     kvdb.Get gave the paths this cache replaces. The authoritative
//     revision recheck in attestOnce additionally runs under the stripe
//     lock, where the entry cannot be invalidated concurrently at all.
//   - The cache lives strictly above kvdb and inside the enclave trust
//     boundary: it holds decrypted policy state in enclave memory only,
//     is never persisted, and is rebuilt empty by Open — so a restart,
//     crash, or operator-acknowledged -recover always starts cold and the
//     Fig 6 v==c rollback check never has a warm cache to disagree with.

// policyVersion identifies one stored state of a policy. Revision alone is
// not enough: a delete+recreate restarts Revision at 1, and CreateID is
// what catches that.
type policyVersion struct {
	Revision uint64
	CreateID uint64
}

// policySnapshot is one immutable decoded policy state plus its derived
// release artefacts. Nothing in it is ever mutated after construction
// except the memos below, each written once; handlers receive copies
// (policy.Clone, Compiled's copying accessors) or, for secretsBody, a byte
// slice they only ever read.
type policySnapshot struct {
	// pol is the decoded stored policy. Read-only.
	pol *policy.Policy
	// version is pol's (Revision, CreateID).
	version policyVersion
	// seq is the kvdb commit sequence observed when the snapshot was
	// decoded (diagnostics; the stripe-lock protocol, not seq, carries
	// the coherence argument).
	seq uint64
	// compiled is the precompiled release view (secrets materialised,
	// templates substituted) of the STORED policy — imported secret
	// values are not resolved here, matching what ReadPolicy/FetchSecrets
	// have always served.
	compiled *policy.Compiled

	// digest memoizes board.DigestPolicy(pol) and body the encoded
	// wire.SecretsResponse releasing every secret: both depend on pol
	// alone, are built on first use, and go when the snapshot goes — the
	// invalidate-under-write-lock protocol above covers them as it covers
	// pol, so neither can be staler than the snapshot that holds it.
	digestOnce sync.Once
	digest     [32]byte
	bodyOnce   sync.Once
	body       []byte

	// resolveMu guards resolved for policies with imports; import-free
	// policies set resolved once at decode time and never rewrite it.
	resolveMu sync.Mutex
	// resolved memoizes import resolution for one exporter-version
	// vector; nil until first use.
	resolved *resolvedPolicy // palaemon:guardedby resolveMu
}

// resolvedPolicy is a memoized resolvePolicy result: the policy with
// import intersections applied and imported secrets resolved, keyed by
// the dependency-version vector it was resolved against.
type resolvedPolicy struct {
	// key encodes the exporter (name, Revision, CreateID) vector.
	key string
	// pol is the resolved policy. Read-only.
	pol *policy.Policy
	// deps snapshots each exporter's version at resolution time, so the
	// locked recheck can detect an exporter rotating a secret between
	// resolution and release. Nil for import-free policies.
	deps map[string]policyVersion
	// compiled is the release view of the RESOLVED policy (imported
	// secret values present).
	compiled *policy.Compiled
}

// boardDigest returns the content digest board members sign off on for
// this revision, hashed on the first call.
func (s *policySnapshot) boardDigest() [32]byte {
	s.digestOnce.Do(func() { s.digest = board.DigestPolicy(s.pol) })
	return s.digest
}

// secretsBody returns the response body that releases every secret of this
// revision, exactly as writeJSON encodes wire.SecretsResponse{Secrets:
// compiled.Secrets()}, encoded on the first call. The bytes are shared by
// every request served from the snapshot and are only ever read: written
// straight to the connection, never handed to a caller that could write
// to them. They hold secret values for as long as the snapshot lives —
// in enclave memory, never persisted, like pol itself.
func (s *policySnapshot) secretsBody() json.RawMessage {
	s.bodyOnce.Do(func() {
		var buf bytes.Buffer
		// Cannot fail: a map of strings into memory (invalid UTF-8 is
		// replaced, not refused).
		_ = json.NewEncoder(&buf).Encode(wire.SecretsResponse{Secrets: s.compiled.Secrets()})
		// The body lives as long as the snapshot; leave the buffer's spare
		// capacity behind.
		s.body = bytes.Clone(buf.Bytes())
	})
	return s.body
}

// policyCache maps policy name → decoded snapshot, striped like the locks
// it cooperates with.
type policyCache struct {
	shards [lockStripes]policyCacheShard

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

type policyCacheShard struct {
	mu sync.RWMutex
	m  map[string]*policySnapshot // palaemon:guardedby mu
}

func newPolicyCache() *policyCache {
	c := &policyCache{}
	for i := range c.shards {
		//palaemon:allow guardedby -- single-goroutine construction: the cache is not published until newPolicyCache returns
		c.shards[i].m = make(map[string]*policySnapshot)
	}
	return c
}

func (c *policyCache) get(name string) (*policySnapshot, bool) {
	s, ok := c.peek(name)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return s, ok
}

// peek is get without touching the hit/miss counters, for re-checks that
// are part of a lookup already counted (snapshot's post-rlock re-check —
// otherwise every cold read would count twice).
func (c *policyCache) peek(name string) (*policySnapshot, bool) {
	sh := &c.shards[stripeFor(name)]
	sh.mu.RLock()
	s, ok := sh.m[name]
	sh.mu.RUnlock()
	return s, ok
}

func (c *policyCache) put(name string, s *policySnapshot) {
	sh := &c.shards[stripeFor(name)]
	sh.mu.Lock()
	sh.m[name] = s
	sh.mu.Unlock()
}

// invalidate drops the entry. Callers hold the per-name policy stripe
// lock in write mode and have already applied the mutation to the
// database — the ordering the coherence argument above depends on.
func (c *policyCache) invalidate(name string) {
	c.invalidations.Add(1)
	sh := &c.shards[stripeFor(name)]
	sh.mu.Lock()
	delete(sh.m, name)
	sh.mu.Unlock()
}

// CacheStats reports the read-path cache counters plus the kvdb read/seq
// counters behind them.
type CacheStats struct {
	// Hits/Misses count snapshot lookups.
	Hits, Misses uint64
	// Invalidations counts entries dropped by the write path.
	Invalidations uint64
	// DBReads counts kvdb Get/Keys calls (every cache hit is a db read
	// that never happened).
	DBReads uint64
	// DBSeq is the kvdb commit sequence (mutations applied).
	DBSeq uint64
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Since returns the counter deltas relative to an earlier reading.
func (s CacheStats) Since(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:          s.Hits - prev.Hits,
		Misses:        s.Misses - prev.Misses,
		Invalidations: s.Invalidations - prev.Invalidations,
		DBReads:       s.DBReads - prev.DBReads,
		DBSeq:         s.DBSeq - prev.DBSeq,
	}
}

// CacheStats reports the instance's read-path cache effectiveness.
func (i *Instance) CacheStats() CacheStats {
	return CacheStats{
		Hits:          i.pcache.hits.Load(),
		Misses:        i.pcache.misses.Load(),
		Invalidations: i.pcache.invalidations.Load(),
		DBReads:       i.db.Reads(),
		DBSeq:         i.db.Seq(),
	}
}

// --- Snapshot access ---------------------------------------------------------

// loadSnapshot decodes the stored policy and builds its derived release
// artefacts. It reads the database only — no cache, no stripe locks — and
// tells a missing policy (ErrPolicyNotFound) from an unhealthy store.
func (i *Instance) loadSnapshot(name string) (*policySnapshot, error) {
	raw, err := i.db.Get(bucketPolicies, name)
	if errors.Is(err, kvdb.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrPolicyNotFound, name)
	}
	if err != nil {
		// Closed or poisoned database: the instance is unhealthy, which is
		// not the same as the policy not existing.
		return nil, fmt.Errorf("core: read policy %s: %w", name, err)
	}
	seq := i.db.Seq()
	var p policy.Policy
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("core: decode policy %s: %w", name, err)
	}
	s := &policySnapshot{
		pol:      &p,
		version:  policyVersion{Revision: p.Revision, CreateID: p.CreateID},
		seq:      seq,
		compiled: policy.Compile(&p),
	}
	if len(p.Imports) == 0 {
		// Import-free resolution is the identity; precompute it so the
		// attestation fast path is a pure lookup.
		//palaemon:allow guardedby -- pre-publication init: the snapshot is not shared until the cache put, and import-free resolved is never rewritten
		s.resolved = &resolvedPolicy{pol: s.pol, compiled: s.compiled}
	}
	return s, nil
}

// snapshotLocked returns the snapshot for name, populating the cache on
// miss. The caller holds the per-name policy stripe lock (read or write
// mode), which is what makes the populate race-free against writers.
func (i *Instance) snapshotLocked(name string) (*policySnapshot, error) {
	if s, ok := i.pcache.get(name); ok {
		return s, nil
	}
	s, err := i.loadSnapshot(name)
	if err != nil {
		return nil, err
	}
	i.pcache.put(name, s)
	return s, nil
}

// snapshot returns the snapshot for name for callers holding no policy
// lock. The fast path reads the cache without the stripe lock (a present
// entry always equals the stored state, see the coherence rules above); a
// miss briefly takes the per-name read lock to populate safely. One
// logical read counts exactly once: the post-rlock re-check is a peek.
func (i *Instance) snapshot(name string) (*policySnapshot, error) {
	if s, ok := i.pcache.get(name); ok {
		return s, nil
	}
	mu := i.policyLocks.rlock(name)
	defer mu.RUnlock()
	if s, ok := i.pcache.peek(name); ok {
		// Populated while we queued for the stripe lock.
		return s, nil
	}
	s, err := i.loadSnapshot(name)
	if err != nil {
		return nil, err
	}
	i.pcache.put(name, s)
	return s, nil
}

// policyVersionRecord decodes just the version fields of a stored policy —
// the cheap peek for revision rechecks that miss the cache.
type policyVersionRecord struct {
	Revision uint64 `json:"revision"`
	CreateID uint64 `json:"create_id"`
}

// peekVersion returns the stored (Revision, CreateID) of name as cheaply
// as possible: a cache lookup when warm, a two-field decode when cold. It
// takes no stripe locks and does not populate the cache, so it is safe
// from any locking context — including under another policy's stripe lock
// (the import recheck in attestOnce).
func (i *Instance) peekVersion(name string) (policyVersion, error) {
	if s, ok := i.pcache.get(name); ok {
		return s.version, nil
	}
	raw, err := i.db.Get(bucketPolicies, name)
	if errors.Is(err, kvdb.ErrNotFound) {
		return policyVersion{}, fmt.Errorf("%w: %s", ErrPolicyNotFound, name)
	}
	if err != nil {
		return policyVersion{}, fmt.Errorf("core: read policy %s: %w", name, err)
	}
	var rec policyVersionRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return policyVersion{}, fmt.Errorf("core: decode policy %s: %w", name, err)
	}
	return policyVersion{Revision: rec.Revision, CreateID: rec.CreateID}, nil
}

// resolveSnapshot returns the snapshot of name plus its import-resolved
// release view (intersections applied, imported secrets filled in),
// memoized per exporter-version vector. The optimistic read contract is
// unchanged from the decode-per-request resolvePolicy it replaces: the
// result may be stale by the time it is used, and the locked revision
// recheck (own version AND every dep version) is what catches that.
func (i *Instance) resolveSnapshot(name string) (*policySnapshot, *resolvedPolicy, error) {
	s, err := i.snapshot(name)
	if err != nil {
		return nil, nil, err
	}
	if len(s.pol.Imports) == 0 {
		return s, s.resolved, nil
	}

	exporters := make(map[string]*policy.Policy, len(s.pol.Imports))
	deps := make(map[string]policyVersion, len(s.pol.Imports))
	var key strings.Builder
	for _, imp := range s.pol.Imports {
		exp, err := i.snapshot(imp.Policy)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resolve import %q: %w", imp.Policy, err)
		}
		exporters[imp.Policy] = exp.pol
		deps[imp.Policy] = exp.version
		fmt.Fprintf(&key, "%s\x00%d\x00%d\x00", imp.Policy, exp.version.Revision, exp.version.CreateID)
	}

	s.resolveMu.Lock()
	defer s.resolveMu.Unlock()
	if r := s.resolved; r != nil && r.key == key.String() {
		return s, r, nil
	}
	resolved := s.pol.Clone()
	if err := resolved.ApplyImports(exporters); err != nil {
		return nil, nil, err
	}
	if err := resolved.ResolveImportedSecrets(exporters); err != nil {
		return nil, nil, err
	}
	r := &resolvedPolicy{
		key:      key.String(),
		pol:      resolved,
		deps:     deps,
		compiled: policy.Compile(resolved),
	}
	s.resolved = r
	return s, r, nil
}
