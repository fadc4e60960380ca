package core

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// This file implements the v2 watch/list/peek surface: the change
// notification hub behind GET /v2/policies/{name}/watch, the cheap
// creator-scoped version peek behind conditional reads (ETag), and the
// paginated listing behind GET /v2/policies.

// watchHub broadcasts per-policy change notifications with generation
// channels: subscribe returns the current generation's channel, notify
// closes it (waking every subscriber) and retires it so the next
// subscribe starts a fresh generation. Entries are reference-counted:
// when the last subscriber of a generation unsubscribes without a notify
// having fired, the entry is reclaimed — so probing arbitrary (even
// never-existing) policy names cannot grow the map without bound.
type watchHub struct {
	mu      sync.Mutex
	entries map[string]*watchEntry // palaemon:guardedby mu
}

// watchEntry is one generation of subscribers. Its fields are owned by
// the hub's mutex (palaemon:guardedby, verified by palaemonvet): notify
// retires the entry from the map under mu before closing ch, so the
// post-unlock close acts on an entry no other goroutine can reach.
type watchEntry struct {
	ch   chan struct{} // palaemon:guardedby mu
	refs int           // palaemon:guardedby mu
}

func newWatchHub() *watchHub {
	return &watchHub{entries: make(map[string]*watchEntry)}
}

// subscribe returns the channel that will be closed on the next change to
// name. Callers MUST subscribe before reading the state they wait on (or
// a change landing between read and subscribe is lost) and MUST pair the
// call with unsubscribe.
func (h *watchHub) subscribe(name string) <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.entries[name]
	if !ok {
		e = &watchEntry{ch: make(chan struct{})}
		h.entries[name] = e
	}
	e.refs++
	return e.ch
}

// unsubscribe releases one subscription of the given generation. When the
// generation was already retired by notify (the stored channel differs),
// there is nothing to reclaim.
func (h *watchHub) unsubscribe(name string, ch <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.entries[name]
	if !ok || e.ch != ch {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(h.entries, name)
	}
}

// notify wakes every subscriber of name. Writers call it after the
// database accepted the mutation and the cache entry was invalidated
// (still under the per-name write stripe lock), so a woken watcher
// re-reading the policy observes the new state.
func (h *watchHub) notify(name string) {
	h.mu.Lock()
	e, ok := h.entries[name]
	if ok {
		delete(h.entries, name)
	}
	h.mu.Unlock()
	if ok {
		close(e.ch)
	}
}

// PolicyVersion is the externally visible identity of one stored policy
// state: the pair every optimistic recheck and the v2 ETag are built from.
type PolicyVersion struct {
	// Revision increments on every content change (including FSPF key
	// mints); it restarts at 1 when a policy is deleted and recreated.
	Revision uint64
	// CreateID distinguishes recreations that restart Revision.
	CreateID uint64
}

// WatchResult is the outcome of one WatchPolicy long-poll.
type WatchResult struct {
	// Version is the stored version observed at return time (zero when
	// Deleted).
	Version PolicyVersion
	// Changed reports the policy moved past the watched revision
	// (deletion included); false means the poll window expired.
	Changed bool
	// Deleted reports the policy no longer exists.
	Deleted bool
}

// PeekPolicyVersionFor returns the stored version of name to the policy's
// creator. It is the conditional-read fast path (DESIGN.md §9): a warm
// policy cache answers from the decoded snapshot without touching the
// database or re-encoding anything, and no board approval runs — the only
// information released is "your policy did (not) change", which the
// pinned creator is entitled to.
func (i *Instance) PeekPolicyVersionFor(client ClientID, name string) (PolicyVersion, error) {
	if err := i.begin(); err != nil {
		return PolicyVersion{}, err
	}
	defer i.end()
	return i.peekVersionFor(client, name)
}

// peekVersionFor is PeekPolicyVersionFor without request accounting, for
// callers that have already begun a request (the watch loop).
func (i *Instance) peekVersionFor(client ClientID, name string) (PolicyVersion, error) {
	s, err := i.snapshot(name)
	if err != nil {
		return PolicyVersion{}, err
	}
	if !isCreator(s.pol, client) {
		return PolicyVersion{}, ErrAccessDenied
	}
	return PolicyVersion{Revision: s.version.Revision, CreateID: s.version.CreateID}, nil
}

// WatchPolicy blocks until the stored policy differs from the watched
// version (an update, an FSPF key mint, a delete, or a delete+recreate),
// the context expires (Changed=false — the caller re-arms), or the
// instance starts draining (ErrDraining). sinceCreateID guards the
// delete+recreate case — Revision restarts at 1 on recreation, so a
// recreation landing on the watched revision number would otherwise be
// invisible (same rule as the ETag and the cache coherence checks); zero
// means "unknown" and disables that comparison. The wait itself does not
// count as an in-flight request: a long-poll must not stall the Fig 6
// drain, so only the per-wakeup version peeks register, and the drain
// signal ends every pending watch promptly.
func (i *Instance) WatchPolicy(ctx context.Context, client ClientID, name string, sinceRev, sinceCreateID uint64) (WatchResult, error) {
	for {
		res, done, err := i.watchOnce(ctx, client, name, sinceRev, sinceCreateID)
		if done {
			return res, err
		}
	}
}

// watchOnce is one subscribe/peek/wait cycle; done=false means a change
// notification fired and the caller should re-peek.
func (i *Instance) watchOnce(ctx context.Context, client ClientID, name string, sinceRev, sinceCreateID uint64) (WatchResult, bool, error) {
	// Subscribe BEFORE peeking: a write landing after the peek but before
	// the wait closes this generation's channel, so the loop re-peeks
	// instead of sleeping through the change. The paired unsubscribe
	// reclaims the hub entry when no notify fired (probes of arbitrary
	// names must not grow the hub).
	ch := i.watchers.subscribe(name)
	defer i.watchers.unsubscribe(name, ch)

	if err := i.begin(); err != nil {
		return WatchResult{}, true, err
	}
	ver, err := i.peekVersionFor(client, name)
	i.end()
	switch {
	case errors.Is(err, ErrPolicyNotFound):
		// Deleted (or never existed). A watcher armed at rev 0 on a
		// missing policy is waiting for creation, not observing a
		// deletion.
		if sinceRev != 0 {
			return WatchResult{Changed: true, Deleted: true}, true, nil
		}
	case err != nil:
		return WatchResult{}, true, err
	case ver.Revision != sinceRev || (sinceCreateID != 0 && ver.CreateID != sinceCreateID):
		return WatchResult{Version: ver, Changed: true}, true, nil
	}

	select {
	case <-ch:
		// Something changed; re-peek.
		return WatchResult{}, false, nil
	case <-ctx.Done():
		// A deadline is the poll window expiring — the documented
		// Changed=false re-arm signal. A cancellation is the caller going
		// away and must surface as the error, or a re-arm loop (palaemonctl
		// watch, any in-process consumer) would busy-spin on instant
		// Changed=false returns instead of observing the cancel.
		if errors.Is(ctx.Err(), context.Canceled) {
			return WatchResult{}, true, ctx.Err()
		}
		return WatchResult{Version: PolicyVersion{Revision: sinceRev, CreateID: sinceCreateID}, Changed: false}, true, nil
	case <-i.drainCh:
		return WatchResult{}, true, ErrDraining
	}
}

// MaxPolicyPage caps one ListPolicyNamesPage response.
const MaxPolicyPage = 1000

// DefaultPolicyPage is the page size when the caller asks for none.
const DefaultPolicyPage = 100

// ListPolicyNamesPage returns one sorted page of policy names strictly
// after the cursor (empty cursor starts at the beginning), plus the total
// number of stored policies and the cursor for the next page ("" when the
// listing is complete). Names are not secret (§IV-E stores them as plain
// identifiers); contents remain guarded by the two-stage read gate.
//
// The sorted name list is memoized against the kvdb commit sequence, so
// paging through N policies costs one scan+sort total, not one per page
// (cursor pagination over a fresh full sort would be quadratic). Any
// committed mutation bumps the sequence and invalidates the memo — a
// coarser key than "policy bucket changed", but never stale.
func (i *Instance) ListPolicyNamesPage(after string, limit int) (names []string, total int, nextAfter string, err error) {
	if err := i.begin(); err != nil {
		return nil, 0, "", err
	}
	defer i.end()

	all, err := i.sortedPolicyNames()
	if err != nil {
		return nil, 0, "", err
	}
	total = len(all)
	if limit <= 0 {
		limit = DefaultPolicyPage
	}
	if limit > MaxPolicyPage {
		limit = MaxPolicyPage
	}
	start := sort.SearchStrings(all, after)
	for start < len(all) && all[start] == after {
		start++
	}
	end := start + limit
	if end > len(all) {
		end = len(all)
	}
	names = append([]string(nil), all[start:end]...)
	if end < len(all) && len(names) > 0 {
		nextAfter = names[len(names)-1]
	}
	return names, total, nextAfter, nil
}

// sortedPolicyNames returns the memoized sorted name list, refreshed when
// the kvdb commit sequence moved. The returned slice is shared and must
// not be mutated. The sequence is read BEFORE the key scan: a write
// landing in between makes the memo appear staler than it is (refreshed
// on the next call), never fresher.
func (i *Instance) sortedPolicyNames() ([]string, error) {
	seq := i.db.Seq()
	i.namesMu.Lock()
	defer i.namesMu.Unlock()
	if i.namesSorted != nil && i.namesSeq == seq {
		return i.namesSorted, nil
	}
	all, err := i.db.Keys(bucketPolicies)
	if err != nil {
		return nil, err
	}
	if all == nil {
		all = []string{} // non-nil marks the memo populated
	}
	sort.Strings(all)
	i.namesSorted = all
	i.namesSeq = seq
	return all, nil
}
