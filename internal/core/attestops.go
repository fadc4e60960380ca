package core

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"palaemon/internal/attest"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/kvdb"
	"palaemon/internal/policy"
	"palaemon/internal/wire"
)

// AppConfig is the configuration PALÆMON releases to an attested
// application (§IV-A). The concrete type lives in the wire contract
// package (it IS the attestation response DTO); core re-exports it so
// its callers — the runtime, the facade — need no wire import.
type AppConfig = wire.AppConfig

// AttestApplication verifies application evidence against the named policy
// and, on success, releases the service configuration (§IV-A). The quoting
// key is the platform's, known to the instance (in a deployment PALÆMON
// verifies via IAS or a cached QE identity; the trust decision is
// identical).
func (i *Instance) AttestApplication(ctx context.Context, ev attest.Evidence, quotingKey ed25519.PublicKey) (*AppConfig, error) {
	cfg, err := i.attestApplication(ev, quotingKey)
	i.obsAttest(ctx, ev, err)
	if err == nil {
		// Attestation mutates durable state (volume key mint, tag-record
		// epoch bump), so it crosses the replication barrier like any
		// other acked write.
		if err = i.replAck(); err != nil {
			cfg = nil
		}
	}
	return cfg, err
}

func (i *Instance) attestApplication(ev attest.Evidence, quotingKey ed25519.PublicKey) (*AppConfig, error) {
	if err := i.begin(); err != nil {
		return nil, err
	}
	defer i.end()

	// (i) the TLS session key must match the quote's report data, and the
	// quote signature must verify.
	if err := attest.VerifyBinding(ev, quotingKey); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	// The policy-dependent part runs optimistically: board-free reads,
	// then a locked revision recheck before anything is stored. A benign
	// race — a concurrent first attestation minting the volume key, or a
	// policy update landing mid-flight — surfaces as ErrConflict and is
	// retried against the fresh policy.
	// The bound scales with the policy's service count because conflicts
	// are per-policy, not per-service: every sibling service's first
	// attestation bumps the shared revision via its key mint, so booting
	// a many-service policy concurrently can invalidate one attempt once
	// per sibling (and again in the post-mint recheck window).
	// The pre-read is a snapshot peek: warm, it costs a map lookup; cold,
	// the decode it pays is the one attestOnce reuses immediately after.
	attempts := 8
	if snap, err := i.snapshot(ev.PolicyName); err == nil {
		if n := 4 + 2*len(snap.pol.Services); n > attempts {
			attempts = n
		}
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		cfg, err := i.attestOnce(ev)
		if err == nil {
			return cfg, nil
		}
		if !errors.Is(err, ErrConflict) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// attestOnce is one optimistic attestation attempt against the current
// stored policy revision.
func (i *Instance) attestOnce(ev attest.Evidence) (*AppConfig, error) {
	// (ii) the policy must exist and permit the MRE. The snapshot gives
	// the decoded policy and its import-resolved release view (memoized
	// per exporter-version vector) without re-decoding anything on the
	// warm path.
	snap, res, err := i.resolveSnapshot(ev.PolicyName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	p := res.pol
	svc, ok := p.FindService(ev.ServiceName)
	if !ok {
		return nil, fmt.Errorf("%w: unknown service %q", ErrAttestation, ev.ServiceName)
	}
	if !svc.PermittedMRE(ev.Quote.MRE) {
		return nil, fmt.Errorf("%w: %v", ErrAttestation, attest.ErrMRENotPermitted)
	}
	// (iii) the platform must be permitted.
	if !svc.PermittedPlatform(ev.Quote.Platform) {
		return nil, fmt.Errorf("%w: %v", ErrAttestation, attest.ErrPlatformNotPermitted)
	}

	// Build the released configuration from the precompiled templates
	// (substitution already done once for this revision). Map-valued
	// content is copied per release, so a handler mutating its AppConfig
	// can never reach back into the shared snapshot.
	cs, ok := res.compiled.Service(ev.ServiceName)
	if !ok {
		return nil, fmt.Errorf("%w: unknown service %q", ErrAttestation, ev.ServiceName)
	}
	cfg := &AppConfig{
		Command:        cs.Command,
		Environment:    cs.Environment(),
		Secrets:        res.compiled.Secrets(),
		InjectionFiles: cs.InjectionFiles(),
		StrictMode:     cs.StrictMode,
	}
	// Advisory pre-validation of the tag record (the authoritative pass
	// runs under the tag lock below): a request that will be refused —
	// strict-mode restart, corrupt or non-permitted stored tag — must not
	// first mint and persist a volume key; a rejected request may not
	// mutate the stored policy.
	if rec, err := i.tagRecordFor(ev.PolicyName, ev.ServiceName); err != nil {
		return nil, err
	} else if _, err := validateTagRecord(svc, rec, ev.PolicyName, ev.ServiceName); err != nil {
		return nil, err
	}

	// expectRev tracks the stored revision this attestation is valid
	// against; the FSPF mint below advances it, and the locked recheck
	// before the tag bump invalidates the whole attestation if the policy
	// was updated, deleted, or deleted-and-recreated in the meantime.
	expectRev := snap.version.Revision
	if svc.FSPFKey != "" {
		key, err := cryptoutil.KeyFromHex(svc.FSPFKey)
		if err != nil {
			return nil, fmt.Errorf("core: policy FSPF key: %w", err)
		}
		cfg.FSPFKey = key
	} else {
		// First execution: mint the volume key and persist it in the stored
		// policy so restarts decrypt the same volume. The per-policy lock
		// makes the mint atomic — of two racing first attestations, one
		// mints and the other adopts the stored key (policy lock strictly
		// before tag lock, per the stripedRW ordering discipline).
		key, rev, err := i.mintFSPFKey(ev.PolicyName, ev.ServiceName, snap.version.Revision, snap.version.CreateID)
		if err != nil {
			return nil, err
		}
		cfg.FSPFKey = key
		expectRev = rev
	}

	// Tag-record sequence: strict-mode check, expected-tag selection, and
	// the epoch bump happen atomically under the per-service tag lock, so a
	// concurrent attestation cannot interleave between check and bump. The
	// policy read lock (taken first, per the stripedRW ordering discipline)
	// excludes a concurrent DeletePolicy, which would otherwise finish its
	// tag cleanup and then have this attest recreate an orphan record.
	pmu := i.policyLocks.rlock(ev.PolicyName)
	defer pmu.RUnlock()
	// Authoritative revision recheck: under the stripe lock no writer can
	// land (writers mutate and invalidate under the write lock), so the
	// snapshot read here IS the stored state — cached or not.
	check, err := i.snapshotLocked(ev.PolicyName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	if check.version.Revision != expectRev || check.version.CreateID != snap.version.CreateID {
		// Updated, or deleted and recreated (the CreateID catches the
		// recreation even when revisions and creator line up), since we
		// resolved it: the secrets and services above are stale.
		return nil, fmt.Errorf("%w: %w", ErrAttestation,
			fmt.Errorf("%w: policy %s changed during attestation", ErrConflict, ev.PolicyName))
	}
	// The released secrets may also come from imported exporter policies;
	// a rotation there between resolve and release must invalidate this
	// attempt too. peekVersion takes no stripe lock (we already hold this
	// policy's, and an exporter may share the stripe).
	for depName, ver := range res.deps {
		depVer, err := i.peekVersion(depName)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAttestation, err)
		}
		if depVer != ver {
			return nil, fmt.Errorf("%w: %w", ErrAttestation,
				fmt.Errorf("%w: imported policy %s changed during attestation", ErrConflict, depName))
		}
	}
	tmu := i.tagLocks.lock(tagKey(ev.PolicyName, ev.ServiceName))
	defer tmu.Unlock()

	// Authoritative tag-record validation (strict mode, expected tag).
	rec, err := i.tagRecordFor(ev.PolicyName, ev.ServiceName)
	if err != nil {
		return nil, err
	}
	expected, err := validateTagRecord(svc, rec, ev.PolicyName, ev.ServiceName)
	if err != nil {
		return nil, err
	}
	cfg.ExpectedTag = expected

	// Open a tag-push session for this execution.
	tokenKey, err := cryptoutil.NewKey()
	if err != nil {
		return nil, err
	}
	token := hex.EncodeToString(tokenKey[:])
	rec.Epoch++
	rec.Running = true
	rec.CleanExit = false
	if err := i.putTagRecord(ev.PolicyName, ev.ServiceName, rec); err != nil {
		return nil, err
	}
	cfg.Epoch = rec.Epoch
	cfg.SessionToken = token

	i.sessions.put(token, &session{
		policyName:  ev.PolicyName,
		serviceName: ev.ServiceName,
		sessionKey:  append([]byte(nil), ev.SessionKey...),
		epoch:       rec.Epoch,
	})
	return cfg, nil
}

// validateTagRecord runs the §III-D gates for one attestation: the
// strict-mode restart refusal, and selection/validation of the expected
// file-system tag (live record first, then the policy's permitted set).
func validateTagRecord(svc *policy.Service, rec tagRecord, policyName, serviceName string) (fspf.Tag, error) {
	// Strict mode: refuse restart unless the previous execution exited
	// cleanly (pushed its final tag), §III-D.
	if svc.StrictMode && rec.Epoch > 0 && !rec.CleanExit {
		return fspf.Tag{}, fmt.Errorf("%w: policy %s service %s", ErrStrictRestart, policyName, serviceName)
	}
	var expected fspf.Tag
	if rec.Tag != "" {
		parsed, err := policy.ParseTag(rec.Tag)
		if err != nil {
			return fspf.Tag{}, fmt.Errorf("core: stored tag corrupt: %w", err)
		}
		expected = parsed
	} else if len(svc.FSPFTags) > 0 {
		expected = svc.FSPFTags[0]
	}
	if !expected.IsZero() && !svc.PermittedTag(expected) && len(svc.FSPFTags) > 0 {
		// The stored tag drifted outside the policy's permitted set; a
		// policy update (board-approved) is required to accept it.
		return fspf.Tag{}, fmt.Errorf("%w: stored tag not permitted by policy", ErrAttestation)
	}
	return expected, nil
}

// mintFSPFKey persists a fresh volume key for the service. The mint bumps
// the stored Revision so every optimistic revision recheck (policy CRUD
// approvals, the attest recheck) observes that the content changed —
// otherwise a concurrent update would silently discard the key and strand
// the volume encrypted under it. Any deviation from the expected revision
// (including a racing attestation having minted first) is ErrConflict:
// the caller re-resolves and retries, adopting whatever the store now
// holds. Returns the key and the revision the store is now at.
func (i *Instance) mintFSPFKey(policyName, serviceName string, expectRev, createID uint64) (cryptoutil.Key, uint64, error) {
	mu := i.policyLocks.lock(policyName)
	defer mu.Unlock()
	snap, err := i.snapshotLocked(policyName)
	if err != nil {
		return cryptoutil.Key{}, 0, err
	}
	if snap.version.CreateID != createID {
		return cryptoutil.Key{}, 0, fmt.Errorf("%w: %w", ErrAttestation,
			fmt.Errorf("%w: policy %s recreated during attestation", ErrConflict, policyName))
	}
	cur, ok := snap.pol.FindService(serviceName)
	if !ok {
		return cryptoutil.Key{}, 0, fmt.Errorf("%w: unknown service %q", ErrAttestation, serviceName)
	}
	if snap.version.Revision != expectRev || cur.FSPFKey != "" {
		// The policy moved since it was resolved — a racing attestation
		// minted the key, or an update (possibly carrying an explicit key
		// and new secrets) landed. Either way this attempt's configuration
		// is stale; the caller retries against the fresh policy rather
		// than guessing which fields changed.
		return cryptoutil.Key{}, 0, fmt.Errorf("%w: %w", ErrAttestation,
			fmt.Errorf("%w: policy %s changed during attestation", ErrConflict, policyName))
	}
	key, err := cryptoutil.NewKey()
	if err != nil {
		return cryptoutil.Key{}, 0, err
	}
	// Mutate a private clone, never the cached snapshot; putPolicy
	// invalidates the stale entry under the write lock held here.
	stored := snap.pol.Clone()
	s, _ := stored.FindService(serviceName)
	s.FSPFKey = key.Hex()
	stored.Revision++
	if err := i.putPolicy(stored); err != nil {
		return cryptoutil.Key{}, 0, err
	}
	return key, stored.Revision, nil
}

// PushTag stores a new expected tag for the session's service. The runtime
// calls this on every file close and sync (§III-D).
func (i *Instance) PushTag(token string, tag fspf.Tag) error {
	if err := i.begin(); err != nil {
		return err
	}
	defer i.end()
	err := i.pushTag(token, tag, false)
	if err == nil {
		err = i.replAck()
	}
	return err
}

// NotifyExit records a clean exit with the final tag, unblocking
// strict-mode restarts.
func (i *Instance) NotifyExit(token string, tag fspf.Tag) error {
	// Exit notifications are accepted during drain: a terminating PALÆMON
	// still lets applications hand off their final tags (Fig 6's "existing
	// requests are still processed").
	if err := i.beginExit(); err != nil {
		return err
	}
	defer i.end()
	err := i.pushTag(token, tag, true)
	if err == nil {
		err = i.replAck()
	}
	return err
}

func (i *Instance) pushTag(token string, tag fspf.Tag, exit bool) error {
	sess, ok := i.sessions.get(token)
	if !ok {
		return ErrStaleTag
	}
	// The per-service tag lock makes the epoch check and the tag write one
	// atomic step: a zombie cannot pass the check while its successor's
	// attestation is bumping the epoch.
	tmu := i.tagLocks.lock(tagKey(sess.policyName, sess.serviceName))
	defer tmu.Unlock()
	// Re-check membership under the lock: a reset/delete may have purged
	// the session (and restarted the epoch) between the lookup above and
	// the lock, and a successor's fresh epoch could collide with ours.
	if _, ok := i.sessions.get(token); !ok {
		return ErrStaleTag
	}
	rec, err := i.tagRecordFor(sess.policyName, sess.serviceName)
	if err != nil {
		return err
	}
	if rec.Epoch != sess.epoch {
		// A newer execution superseded this session: a zombie process must
		// not clobber its successor's expected tags.
		return fmt.Errorf("%w: epoch %d, current %d", ErrStaleTag, sess.epoch, rec.Epoch)
	}
	rec.Tag = tag.String()
	if exit {
		rec.Running = false
		rec.CleanExit = true
	}
	if err := i.putTagRecord(sess.policyName, sess.serviceName, rec); err != nil {
		return err
	}
	if exit {
		i.sessions.delete(token)
	}
	return nil
}

// ExpectedTag reads the stored expected tag for diagnostics and benches.
func (i *Instance) ExpectedTag(policyName, serviceName string) (fspf.Tag, error) {
	if err := i.begin(); err != nil {
		return fspf.Tag{}, err
	}
	defer i.end()
	rec, err := i.tagRecordFor(policyName, serviceName)
	if err != nil {
		return fspf.Tag{}, err
	}
	if rec.Tag == "" {
		return fspf.Tag{}, nil
	}
	return policy.ParseTag(rec.Tag)
}

func tagKey(policyName, serviceName string) string { return policyName + "\x00" + serviceName }

// tagRecordFor reads the stored record; callers needing read-modify-write
// atomicity hold the per-service tag lock.
func (i *Instance) tagRecordFor(policyName, serviceName string) (tagRecord, error) {
	raw, err := i.db.Get(bucketTags, tagKey(policyName, serviceName))
	if errors.Is(err, kvdb.ErrNotFound) {
		return tagRecord{}, nil // fresh record
	}
	if err != nil {
		// Closed or poisoned database: unknown state must not read as a
		// clean first run (the strict-mode gate keys off Epoch/CleanExit).
		return tagRecord{}, fmt.Errorf("core: read tag record: %w", err)
	}
	var rec tagRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return tagRecord{}, fmt.Errorf("core: decode tag record: %w", err)
	}
	return rec, nil
}

func (i *Instance) putTagRecord(policyName, serviceName string, rec tagRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("core: encode tag record: %w", err)
	}
	if err := i.db.Put(bucketTags, tagKey(policyName, serviceName), raw); err != nil {
		return fmt.Errorf("core: store tag record: %w", err)
	}
	return nil
}
