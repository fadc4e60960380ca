package core

import (
	"context"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"palaemon/internal/board"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/kvdb"
	"palaemon/internal/policy"
	"palaemon/internal/wire"
)

// ClientID identifies a client by the fingerprint of its TLS certificate.
// Multiple clients can share one certificate to share one policy (§IV-E).
type ClientID [32]byte

// isCreator reports whether client is the policy's pinned creator. The
// compare is constant-time: a byte-wise != would tell a probing client,
// through response timing, how many leading bytes of the creator's
// fingerprint it has matched — an oracle on the (possibly confidential)
// creator identity.
func isCreator(pol *policy.Policy, client ClientID) bool {
	return subtle.ConstantTimeCompare(pol.CreatorCertFingerprint[:], client[:]) == 1
}

// CreatePolicy stores a new policy under the caller's certificate. The new
// policy's own board must approve the creation (§III-C: "Upon creation, the
// board of the new policy must also approve the operation").
func (i *Instance) CreatePolicy(ctx context.Context, client ClientID, p *policy.Policy) error {
	err := i.createPolicy(ctx, client, p)
	name := ""
	if p != nil {
		name = p.Name
	}
	i.obsMutation(ctx, "policy.create", client, name, err)
	if err == nil {
		err = i.replAck()
	}
	return err
}

func (i *Instance) createPolicy(ctx context.Context, client ClientID, p *policy.Policy) error {
	if err := i.begin(); err != nil {
		return err
	}
	defer i.end()

	if err := p.Validate(); err != nil {
		return err
	}
	// Cheap pre-check so an obviously duplicate name skips board traffic.
	if err := i.policyNameFree(p.Name); err != nil {
		return err
	}

	stored := p.Clone()
	stored.CreatorCertFingerprint = [32]byte(client)
	stored.Revision = 1
	createID, err := cryptoutil.NewKey()
	if err != nil {
		return err
	}
	stored.CreateID = binary.LittleEndian.Uint64(createID[:8])
	if err := stored.MaterializeSecrets(); err != nil {
		return err
	}

	// Board approval runs outside any stripe lock: a slow approver must
	// not stall unrelated policies that collide on the stripe.
	if err := i.approve(ctx, stored.Board, board.Request{
		PolicyName: stored.Name,
		Operation:  "create",
		Revision:   stored.Revision,
	}, func() [32]byte { return board.DigestPolicy(stored) }); err != nil {
		return err
	}
	// The per-name lock plus recheck makes the store atomic: of two racing
	// creates of one name, exactly one wins.
	mu := i.policyLocks.lock(p.Name)
	defer mu.Unlock()
	if err := i.policyNameFree(p.Name); err != nil {
		return err
	}
	return i.putPolicy(stored)
}

// policyNameFree reports nil when no policy holds the name. A closed or
// poisoned database is an error, not a free name.
func (i *Instance) policyNameFree(name string) error {
	_, err := i.db.Get(bucketPolicies, name)
	switch {
	case err == nil:
		return fmt.Errorf("%w: %s", ErrPolicyExists, name)
	case errors.Is(err, kvdb.ErrNotFound):
		return nil
	default:
		return fmt.Errorf("core: check policy name: %w", err)
	}
}

// ReadPolicy returns the policy with secrets, to its creator only, after
// board approval of the read (§III-C permits the board to guard all CRUD).
func (i *Instance) ReadPolicy(ctx context.Context, client ClientID, name string) (*policy.Policy, error) {
	s, err := i.readGate(ctx, client, name)
	if err != nil {
		return nil, err
	}
	// The caller owns the result; never hand out the cached snapshot.
	return s.pol.Clone(), nil
}

// readGate is one gated read, shared by ReadPolicy, FetchSecrets and the
// secrets route: creator-certificate pinning, board approval of the read,
// and the optimistic revision recheck, inside the request's drain window.
// It returns the validated snapshot (read-only; callers release clones,
// compiled copies or the encoded body, never the snapshot itself).
func (i *Instance) readGate(ctx context.Context, client ClientID, name string) (*policySnapshot, error) {
	if err := i.begin(); err != nil {
		return nil, err
	}
	defer i.end()

	s, err := i.snapshot(name)
	if err != nil {
		return nil, err
	}
	if !isCreator(s.pol, client) {
		return nil, ErrAccessDenied
	}
	if err := i.approve(ctx, s.pol.Board, board.Request{
		PolicyName: name,
		Operation:  "read",
		Revision:   s.version.Revision,
	}, s.boardDigest); err != nil {
		return nil, err
	}
	// Optimistic validation instead of holding a stripe lock across the
	// approval: the board approved revision N; if the policy moved on, the
	// decision is stale and the caller retries. A version peek suffices —
	// the snapshot is immutable, so only its identity can go stale.
	cur, err := i.peekVersion(name)
	if err != nil {
		return nil, err
	}
	if cur != s.version {
		// Updated, or deleted and recreated (Revision restarts at 1 on
		// recreation; the CreateID is what catches that case).
		return nil, fmt.Errorf("%w: %s changed during read approval", ErrConflict, name)
	}
	return s, nil
}

// UpdatePolicy replaces the policy content. The caller must present the
// creator certificate, and the CURRENT board must approve the new content —
// a malicious insider cannot first swap the board out (§III-C).
func (i *Instance) UpdatePolicy(ctx context.Context, client ClientID, next *policy.Policy) error {
	err := i.updatePolicy(ctx, client, next)
	name := ""
	if next != nil {
		name = next.Name
	}
	i.obsMutation(ctx, "policy.update", client, name, err)
	if err == nil {
		err = i.replAck()
	}
	return err
}

func (i *Instance) updatePolicy(ctx context.Context, client ClientID, next *policy.Policy) error {
	if err := i.begin(); err != nil {
		return err
	}
	defer i.end()

	if err := next.Validate(); err != nil {
		return err
	}
	cur, err := i.snapshot(next.Name)
	if err != nil {
		return err
	}
	if !isCreator(cur.pol, client) {
		return ErrAccessDenied
	}

	stored := next.Clone()
	stored.CreatorCertFingerprint = cur.pol.CreatorCertFingerprint
	stored.Revision = cur.version.Revision + 1
	stored.CreateID = cur.version.CreateID
	if err := stored.MaterializeSecrets(); err != nil {
		return err
	}
	// The CURRENT board approves the new content (§III-C), outside the
	// stripe lock; the revision recheck below invalidates the decision if
	// the policy moved underneath the approval.
	if err := i.approve(ctx, cur.pol.Board, board.Request{
		PolicyName: stored.Name,
		Operation:  "update",
		Revision:   stored.Revision,
	}, func() [32]byte { return board.DigestPolicy(stored) }); err != nil {
		return err
	}
	mu := i.policyLocks.lock(next.Name)
	defer mu.Unlock()
	check, err := i.peekVersion(next.Name)
	if err != nil {
		return err
	}
	if check != cur.version {
		return fmt.Errorf("%w: %s rev %d -> %d during update approval", ErrConflict, next.Name, cur.version.Revision, check.Revision)
	}
	return i.putPolicy(stored)
}

// DeletePolicy removes a policy (creator certificate + current board).
func (i *Instance) DeletePolicy(ctx context.Context, client ClientID, name string) error {
	err := i.deletePolicy(ctx, client, name)
	i.obsMutation(ctx, "policy.delete", client, name, err)
	if err == nil {
		err = i.replAck()
	}
	return err
}

func (i *Instance) deletePolicy(ctx context.Context, client ClientID, name string) error {
	if err := i.begin(); err != nil {
		return err
	}
	defer i.end()

	cur, err := i.snapshot(name)
	if err != nil {
		return err
	}
	if !isCreator(cur.pol, client) {
		return ErrAccessDenied
	}
	if err := i.approve(ctx, cur.pol.Board, board.Request{
		PolicyName: name,
		Operation:  "delete",
		Revision:   cur.version.Revision,
	}, cur.boardDigest); err != nil {
		return err
	}
	mu := i.policyLocks.lock(name)
	defer mu.Unlock()
	check, err := i.peekVersion(name)
	if err != nil {
		return err
	}
	if check != cur.version {
		return fmt.Errorf("%w: %s changed during delete approval", ErrConflict, name)
	}
	// Tag records go first so a mid-loop failure leaves the policy record
	// in place and the delete retryable; removing the policy first would
	// strand orphaned tag state behind ErrPolicyNotFound. The wipe scans
	// by key prefix rather than the final revision's service list, so
	// records of services removed by earlier updates go too.
	prefix := name + "\x00"
	tagKeys, err := i.db.Keys(bucketTags)
	if err != nil {
		return fmt.Errorf("core: list tags: %w", err)
	}
	for _, k := range tagKeys {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		tmu := i.tagLocks.lock(k)
		err := i.db.Delete(bucketTags, k)
		tmu.Unlock()
		if err != nil {
			return fmt.Errorf("core: delete tags: %w", err)
		}
	}
	if err := i.db.Delete(bucketPolicies, name); err != nil {
		return fmt.Errorf("core: delete policy: %w", err)
	}
	// Invalidate under the per-name write lock, after the database
	// accepted the delete and before the ack (DESIGN.md §8), then wake v2
	// watchers so they observe the deletion.
	i.pcache.invalidate(name)
	i.watchers.notify(name)
	// Sessions of the deleted policy die with it: tag epochs restart at 0
	// on recreation, so a surviving zombie session could otherwise collide
	// with a successor's epoch and clobber its expected tags.
	i.sessions.purge(func(s *session) bool { return s.policyName == name })
	return nil
}

// ListPolicyNames lists stored policy names in sorted order (names are
// not secret; the sort keeps palaemonctl listings and tests
// deterministic — kvdb.Keys iterates a map). The error surfaces a closed
// or poisoned database — an instance with no policies and a broken one
// must not answer alike.
func (i *Instance) ListPolicyNames() ([]string, error) {
	names, err := i.db.Keys(bucketPolicies)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// FetchSecrets returns the named secrets of a policy to its creator, after
// board approval (the Fig 12 remote-secret-retrieval path). Empty names
// fetch every secret. The same two-stage gate as ReadPolicy applies, but
// the release comes from the decoded snapshot's precompiled release view —
// a fresh map per call (copy-on-release), never state the snapshot keeps.
func (i *Instance) FetchSecrets(ctx context.Context, client ClientID, policyName string, names []string) (map[string]string, error) {
	s, err := i.readGate(ctx, client, policyName)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return s.compiled.Secrets(), nil
	}
	out := make(map[string]string, len(names))
	for _, n := range names {
		v, ok := s.compiled.Secret(n)
		if !ok {
			// The caller named a secret the policy does not define: their
			// mistake, not a server fault.
			return nil, wire.NewError(wire.CodeNotFound, http.StatusNotFound, false,
				fmt.Sprintf("core: policy %s has no secret %q", policyName, n))
		}
		out[n] = v
	}
	return out, nil
}

// ResetService clears a service's rollback-protection record. Strict-mode
// services refuse restarts after an unclean exit until the policy owner
// explicitly adjusts the expected state (§III-D: "the restart requires an
// explicit update of the policy, which ... must in turn be approved by the
// policy board"). The same two-stage access control applies.
func (i *Instance) ResetService(ctx context.Context, client ClientID, policyName, serviceName string) error {
	if err := i.begin(); err != nil {
		return err
	}
	defer i.end()

	s, err := i.snapshot(policyName)
	if err != nil {
		return err
	}
	if !isCreator(s.pol, client) {
		return ErrAccessDenied
	}
	if _, ok := s.pol.FindService(serviceName); !ok {
		return fmt.Errorf("%w: service %s", ErrPolicyNotFound, serviceName)
	}
	if err := i.approve(ctx, s.pol.Board, board.Request{
		PolicyName: policyName,
		Operation:  "update",
		Revision:   s.version.Revision,
	}, s.boardDigest); err != nil {
		return err
	}
	// Approval ran outside the locks; re-validate under the policy lock so
	// the check and the tag wipe are atomic against concurrent mutation
	// (policy lock before tag lock, per the stripedRW ordering discipline).
	mu := i.policyLocks.rlock(policyName)
	defer mu.RUnlock()
	check, err := i.snapshotLocked(policyName)
	if err != nil {
		return err
	}
	if check.version != s.version {
		return fmt.Errorf("%w: %s changed during reset approval", ErrConflict, policyName)
	}
	tmu := i.tagLocks.lock(tagKey(policyName, serviceName))
	defer tmu.Unlock()
	if err := i.db.Delete(bucketTags, tagKey(policyName, serviceName)); err != nil {
		return fmt.Errorf("core: reset service: %w", err)
	}
	// The epoch restarts; sessions from the pre-reset execution must not
	// collide with the next execution's epoch. Purged under the tag lock:
	// released, a concurrent attestation could register a fresh session
	// between the wipe and the purge, and we would strand it.
	i.sessions.purge(func(s *session) bool {
		return s.policyName == policyName && s.serviceName == serviceName
	})
	return nil
}

// approve runs the two-stage check's second stage. digest supplies
// req.Digest and is called only when there is a board to show it to: a
// board-less policy never pays the marshal-and-hash.
func (i *Instance) approve(ctx context.Context, b policy.Board, req board.Request, digest func() [32]byte) error {
	if b.Empty() {
		return nil
	}
	if i.eval == nil {
		return fmt.Errorf("%w: no evaluator configured for a board-guarded policy", ErrBoardRejected)
	}
	req.Digest = digest()
	d := i.eval.Evaluate(ctx, b, req)
	if !d.Approved {
		if d.VetoedBy != "" {
			return fmt.Errorf("%w: vetoed by %s", ErrBoardRejected, d.VetoedBy)
		}
		return fmt.Errorf("%w: %d approvals of %d required", ErrBoardRejected, d.Approvals, b.Threshold)
	}
	return nil
}

// putPolicy stores a policy and invalidates its cached snapshot; callers
// hold the per-name policy WRITE lock (every path that stores a policy is
// a read-modify-write), which is what orders the invalidation against
// concurrent cache populates (DESIGN.md §8).
func (i *Instance) putPolicy(p *policy.Policy) error {
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("core: encode policy: %w", err)
	}
	if err := i.db.Put(bucketPolicies, p.Name, raw); err != nil {
		return fmt.Errorf("core: store policy: %w", err)
	}
	i.pcache.invalidate(p.Name)
	// Wake v2 watchers after the invalidation: a woken watcher re-reading
	// the policy decodes the new bytes, never a stale cache entry.
	i.watchers.notify(p.Name)
	return nil
}
