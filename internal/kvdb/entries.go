package kvdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// This file is the replication surface of the store (DESIGN.md §14): an
// in-memory log of committed entries (Entries / TailFrom, the leader
// side) and the verified-apply path a follower replays them through
// (ImportReplica / AppendReplica). Entries become visible strictly at
// the commit barrier — a record is retained only after the fsync that
// made it durable — so a tail can never ship a record a crash on the
// leader would lose.
//
// Replication ships plaintext record fields, not WAL bytes: the leader's
// WAL is sealed under its own database key, which a follower must not
// hold. The hash chain still transfers intact because chainHash covers
// the canonical plaintext JSON encoding of the record, and that encoding
// is deterministic (fixed struct field order) — so a follower rebuilding
// the record from the entry's fields reproduces the leader's bytes
// exactly and can verify both Prev and Chain before applying.

var (
	// ErrEntriesTruncated reports a tail position older than the retained
	// entry window; the follower must re-bootstrap from ExportState.
	ErrEntriesTruncated = errors.New("kvdb: entry history truncated before requested position")
	// ErrEntriesDisabled reports Entries/TailFrom on a store opened
	// without Options.RetainEntries.
	ErrEntriesDisabled = errors.New("kvdb: entry retention not enabled")
	// ErrReplicaDiverged reports a replica entry whose chain hashes do
	// not extend this store's head: the feed skipped, reordered, or
	// fabricated a record, or the replica missed history.
	ErrReplicaDiverged = errors.New("kvdb: replica entry does not extend the local chain")
	// ErrNotEmpty reports ImportReplica on a store that already has state.
	ErrNotEmpty = errors.New("kvdb: replica import requires an empty store")
)

// Entry is one committed record as observed by replication and backup
// tooling: the plaintext record fields plus the chain hashes.
type Entry struct {
	// Seq is the commit sequence after applying this record (1-based,
	// this process — see DB.Seq).
	Seq uint64
	// Op, Bucket, Key, Value, Version mirror the WAL record.
	Op      string
	Bucket  string
	Key     string
	Value   []byte
	Version uint64
	// Prev is the chain head before this record; Chain the head after.
	Prev  [32]byte
	Chain [32]byte
}

// DefaultRetainEntries is the retained-entry cap when Options.RetainEntries
// is -1 ("default on").
const DefaultRetainEntries = 16384

// retainLocked appends a committed record to the entry log and wakes
// tail waiters. Callers hold db.mu and have already applied rec (so
// db.seq is this record's sequence) and advanced the chain to head.
func (db *DB) retainLocked(rec record, head [32]byte) {
	// Every apply site funnels through here, so this is where the applied
	// chain head catches up with the enqueue head — even with retention
	// disabled.
	db.appliedChain = head
	if db.retain == 0 {
		return
	}
	db.entries = append(db.entries, Entry{
		Seq:     db.seq,
		Op:      rec.Op,
		Bucket:  rec.Bucket,
		Key:     rec.Key,
		Value:   rec.Value,
		Version: rec.Version,
		Prev:    rec.Prev,
		Chain:   head,
	})
	if len(db.entries) > db.retain {
		// Drop the oldest half in one copy instead of sliding by one per
		// commit; a follower that falls behind the window re-bootstraps.
		keep := db.retain / 2
		db.entries = append(db.entries[:0:0], db.entries[len(db.entries)-keep:]...)
	}
	if db.tailCh != nil {
		close(db.tailCh)
		db.tailCh = nil
	}
}

// entriesLocked returns up to max retained entries with Seq > from;
// callers hold db.mu (read or write).
func (db *DB) entriesLocked(from uint64, max int) ([]Entry, error) {
	if db.retain == 0 {
		return nil, ErrEntriesDisabled
	}
	if from > db.seq {
		return nil, fmt.Errorf("kvdb: tail position %d ahead of head %d", from, db.seq)
	}
	if from == db.seq {
		return nil, nil
	}
	// Some records exist past from; they must all be retained.
	if len(db.entries) == 0 || db.entries[0].Seq > from+1 {
		return nil, fmt.Errorf("%w: from=%d", ErrEntriesTruncated, from)
	}
	start := int(from + 1 - db.entries[0].Seq)
	end := len(db.entries)
	if max > 0 && end-start > max {
		end = start + max
	}
	return append([]Entry(nil), db.entries[start:end]...), nil
}

// Entries returns up to max committed entries with Seq > from (max <= 0
// means all retained). It fails with ErrEntriesTruncated when the
// retention window no longer covers from+1 — the caller re-bootstraps
// from ExportState — and never returns records that are not yet durable:
// an entry is retained only after its batch's fsync, so a batch is
// observed atomically (all records or none).
func (db *DB) Entries(from uint64, max int) ([]Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.failed != nil {
		return nil, db.poisonedLocked()
	}
	return db.entriesLocked(from, max)
}

// TailFrom blocks until at least one committed entry with Seq > from
// exists (or ctx expires, returning ctx.Err with no entries), then
// returns up to max of them. It rides the commit barrier: the wait is
// woken only after a batch is durable and applied.
func (db *DB) TailFrom(ctx context.Context, from uint64, max int) ([]Entry, error) {
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return nil, ErrClosed
		}
		if db.failed != nil {
			err := db.poisonedLocked()
			db.mu.Unlock()
			return nil, err
		}
		if db.retain == 0 {
			db.mu.Unlock()
			return nil, ErrEntriesDisabled
		}
		if from < db.seq {
			out, err := db.entriesLocked(from, max)
			db.mu.Unlock()
			return out, err
		}
		if db.tailCh == nil {
			db.tailCh = make(chan struct{})
		}
		ch := db.tailCh
		db.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// State is a consistent copy of the applied store state, the follower
// bootstrap payload.
type State struct {
	Data    map[string]map[string][]byte
	Version uint64
	Chain   [32]byte
	Seq     uint64
}

// ExportState returns a deep copy of the current applied (durable)
// state. Queued records that have not reached their fsync are absent by
// construction — they are applied only after the barrier.
func (db *DB) ExportState() (*State, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.failed != nil {
		return nil, db.poisonedLocked()
	}
	data := make(map[string]map[string][]byte, len(db.data))
	for b, kv := range db.data {
		m := make(map[string][]byte, len(kv))
		for k, v := range kv {
			m[k] = append([]byte(nil), v...)
		}
		data[b] = m
	}
	// appliedChain, not chain: the enqueue head may already cover
	// records whose fsync has not happened, and a bootstrap
	// pairing those with the applied data/seq would hand the follower a
	// chain head the entry feed can never extend.
	return &State{Data: data, Version: db.version, Chain: db.appliedChain, Seq: db.seq}, nil
}

// ImportReplica seeds an empty store with a leader's exported state and
// persists it as a snapshot, so the replica is durable from the first
// byte. The store's commit sequence is fast-forwarded to the leader's,
// making subsequent AppendReplica positions line up with the feed.
func (db *DB) ImportReplica(st *State) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.failed != nil {
		return db.poisonedLocked()
	}
	if db.seq != 0 || db.version != 0 || len(db.data) != 0 || db.chain != [32]byte{} {
		return ErrNotEmpty
	}
	data := make(map[string]map[string][]byte, len(st.Data))
	for b, kv := range st.Data {
		m := make(map[string][]byte, len(kv))
		for k, v := range kv {
			m[k] = append([]byte(nil), v...)
		}
		data[b] = m
	}
	db.data = data
	db.version = st.Version
	db.chain = st.Chain
	db.appliedChain = st.Chain
	db.seq = st.Seq
	return db.snapshotLocked()
}

// AppendReplica verifies and applies a contiguous batch of replicated
// entries: every entry's Prev must equal the local chain head, its Chain
// must equal the local recomputation over the rebuilt record, and its
// Seq must be the next in sequence. Verification happens for the whole
// batch BEFORE anything is queued, so a bad feed leaves the replica
// untouched; the batch is then re-sealed under the replica's own key and
// queued as one unit on the commit path (commit, kvdb.go), which writes
// it to the WAL in one append, fsyncs once — the same durability barrier
// a leader's writers pay — and applies it.
func (db *DB) AppendReplica(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.admitLocked(); err != nil {
		return err
	}
	// Verify against the enqueue side: records queued or in flight are
	// ahead of db.seq but already part of the chain.
	chain := db.chain
	seq := db.seq + (db.queued - db.flushed)
	staged := make([]pendingCommit, 0, len(entries))
	for i, e := range entries {
		if e.Seq != seq+1 {
			return fmt.Errorf("%w: entry %d has seq %d, want %d", ErrReplicaDiverged, i, e.Seq, seq+1)
		}
		if e.Prev != chain {
			return fmt.Errorf("%w: entry %d prev hash mismatch at seq %d", ErrReplicaDiverged, i, e.Seq)
		}
		rec := record{Op: e.Op, Bucket: e.Bucket, Key: e.Key, Value: e.Value, Version: e.Version, Prev: e.Prev}
		pt, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("kvdb: encode replica record: %w", err)
		}
		if chainHash(chain, pt) != e.Chain {
			return fmt.Errorf("%w: entry %d chain hash mismatch at seq %d", ErrReplicaDiverged, i, e.Seq)
		}
		framed, err := sealRecord(db.key, pt)
		if err != nil {
			return err
		}
		staged = append(staged, pendingCommit{framed: framed, rec: rec, chain: e.Chain})
		chain = e.Chain
		seq = e.Seq
	}
	db.pending = append(db.pending, staged...)
	db.chain = chain
	db.queued += uint64(len(staged))
	return db.awaitLocked(db.queued)
}
