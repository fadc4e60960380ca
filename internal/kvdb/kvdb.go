// Package kvdb is the embedded encrypted database inside the PALÆMON
// enclave, standing in for the paper's embedded SQLite (§IV).
//
// The store is bucketed key/value with a write-ahead log: every update is
// appended to the WAL as an AES-256-GCM-sealed record chained to its
// predecessor by hash, then fsynced — which is why tag *updates* cost ~6x a
// tag *read* in Fig 11 (left). Open replays the WAL over the last snapshot
// and verifies the hash chain, so truncation or record reordering is
// detected. Whole-database rollback (replacing snapshot+WAL with an older
// consistent pair) is detected one level up by the monotonic-counter
// protocol in internal/core (Fig 6), using the Version stored here.
package kvdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"palaemon/internal/cryptoutil"
	"palaemon/internal/fault"
	"palaemon/internal/fsatomic"
	"palaemon/internal/obs"
)

var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("kvdb: key not found")
	// ErrCorrupt reports authentication or chain verification failure.
	ErrCorrupt = errors.New("kvdb: database corrupt or tampered")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("kvdb: database closed")
)

const (
	snapshotFile = "snapshot.db"
	walFile      = "wal.log"
)

// record is one WAL entry (sealed before hitting disk).
type record struct {
	// Op is "put", "del", or "ver".
	Op string `json:"op"`
	// Bucket/Key/Value carry the mutation.
	Bucket string `json:"bucket,omitempty"`
	Key    string `json:"key,omitempty"`
	Value  []byte `json:"value,omitempty"`
	// Version carries the new version for "ver" records.
	Version uint64 `json:"version,omitempty"`
	// Prev is the chain hash of the predecessor record.
	Prev [32]byte `json:"prev"`
}

// snapshot is the compacted full state.
type snapshot struct {
	Data    map[string]map[string][]byte `json:"data"`
	Version uint64                       `json:"version"`
	// Chain is the WAL hash-chain head at snapshot time.
	Chain [32]byte `json:"chain"`
}

// Options tunes database behaviour.
type Options struct {
	// NoFsync disables the per-update fsync; only benchmarks measuring the
	// non-durable path use it.
	NoFsync bool
	// RetainEntries enables the in-memory committed-entry log behind
	// Entries/TailFrom (replication and backup tooling, entries.go):
	// positive caps the retained window, -1 selects
	// DefaultRetainEntries, 0 (the default) disables retention — a
	// standalone store pays nothing for the feature.
	RetainEntries int
	// FS is the filesystem the store persists through; nil means the
	// real filesystem. The crash-consistency harness injects a
	// fault.Injector here.
	FS fault.FS
	// Obs receives repair warnings (torn-tail truncation, stale-WAL
	// discard, temp-file sweeps) and their counters; nil discards.
	Obs *obs.Obs
}

// pendingCommit is one sealed record queued for the next WAL batch.
type pendingCommit struct {
	// framed is the length-prefixed sealed record, ready for the WAL.
	framed []byte
	// rec is applied to the in-memory state only after the batch is
	// durable, so readers never observe records a crash would lose.
	rec record
	// chain is the hash-chain head after rec (computed at enqueue, where
	// the chain advances); the batch leader stamps it onto the retained
	// entry so the replication feed carries the right head per record.
	chain [32]byte
}

// DB is the embedded store. Safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	dir     string
	key     cryptoutil.Key
	data    map[string]map[string][]byte
	version uint64
	chain   [32]byte
	// appliedChain is the hash-chain head of the APPLIED (durable) prefix.
	// chain advances at enqueue — before the fsync — while
	// data/version/seq advance at apply; appliedChain advances with them,
	// so a state export pairs a consistent {data, seq, chain head} even
	// while a batch is in flight. With the log idle the two heads are
	// equal.
	appliedChain [32]byte
	wal          fault.File
	fs           fault.FS
	obs          *obs.Obs
	opts         Options
	closed       bool
	// walRecords counts records since the last snapshot, for compaction.
	walRecords int
	// seq counts every record ever applied this process (including WAL
	// replay at Open; never reset by Compact). It is the cheap commit
	// sequence read-side caches key their snapshots by: any mutation
	// advances it, so seq(now) == seq(then) proves no write landed in
	// between.
	seq uint64
	// reads counts Get/Keys lookups (observability for read-path caching:
	// a cache hit is a db read that never happened). Atomic so readers
	// under RLock do not race each other.
	reads atomic.Uint64

	// Replication state (entries.go), guarded by mu: retain is the
	// resolved Options.RetainEntries (0 = disabled); entries is the
	// committed-entry window, appended strictly after the durability
	// barrier; tailCh, when non-nil, is closed to wake TailFrom waiters
	// on the next retained entry.
	retain  int
	entries []Entry
	tailCh  chan struct{}

	// Commit state, all guarded by mu. pending holds sealed records whose
	// writers are blocked awaiting durability, in ticket order; spare is
	// the other of the two queue slices, used alternately so a steady
	// writer allocates no queue. queued counts tickets handed out, flushed
	// those whose batch is durable and applied. committing marks a batch
	// in flight to the WAL file; compacting stalls new enqueues so Compact
	// can drain the queue without being starved by fresh writers; failed
	// poisons the database after a batch write error (the chain then
	// references records that never reached disk, so both mutation and
	// reads are refused). commitCond is broadcast on every batch or
	// compaction transition.
	pending    []pendingCommit
	spare      []pendingCommit
	queued     uint64
	flushed    uint64
	committing bool
	compacting bool
	failed     error
	commitCond *sync.Cond
	// batches/batchedRecords count WAL batches for observability
	// (average batch size = batchedRecords/batches).
	batches        int
	batchedRecords int
}

// Open loads (or creates) the database in dir, encrypted under key.
func Open(dir string, key cryptoutil.Key, opts Options) (*DB, error) {
	fsys := fault.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("kvdb: create dir: %w", err)
	}
	db := &DB{
		dir:    dir,
		key:    key,
		data:   make(map[string]map[string][]byte),
		opts:   opts,
		fs:     fsys,
		obs:    opts.Obs.Or(),
		retain: opts.RetainEntries,
	}
	if db.retain < 0 {
		db.retain = DefaultRetainEntries
	}
	db.commitCond = sync.NewCond(&db.mu)
	// A crash between fsatomic's temp-file create and rename strands a
	// "*.tmp" orphan next to the snapshot; nothing is in flight at open,
	// so sweep them before reading state.
	if removed, err := fsatomic.SweepTmp(fsys, dir); err != nil {
		return nil, fmt.Errorf("kvdb: %w", err)
	} else if len(removed) > 0 {
		db.obs.Log.Warn("kvdb: removed stale temp files left by a crash", "dir", dir, "files", removed)
		db.obs.Metrics.Counter("palaemon_kvdb_repairs_total", obs.L("kind", "tmp-sweep")).Add(uint64(len(removed)))
	}
	if err := db.load(); err != nil {
		return nil, err
	}
	wal, err := fsys.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("kvdb: open WAL: %w", err)
	}
	db.wal = wal
	return db, nil
}

// load reads snapshot then replays the WAL, verifying the hash chain.
// Two crash residues are repaired here instead of refusing service
// (both sit strictly past the last commit barrier, so no acked
// write is involved): a torn trailing record from a power loss
// mid-append, and a whole stale WAL from a power loss between Compact's
// snapshot publish and its WAL truncation.
func (db *DB) load() error {
	hadSnapshot := false
	snapRaw, err := db.fs.ReadFile(filepath.Join(db.dir, snapshotFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh database.
	case err != nil:
		return fmt.Errorf("kvdb: read snapshot: %w", err)
	default:
		pt, err := cryptoutil.Open(db.key, snapRaw, []byte("kvdb-snapshot"))
		if err != nil {
			return fmt.Errorf("%w: snapshot", ErrCorrupt)
		}
		var snap snapshot
		if err := json.Unmarshal(pt, &snap); err != nil {
			return fmt.Errorf("%w: snapshot decode", ErrCorrupt)
		}
		db.data = snap.Data
		if db.data == nil {
			db.data = make(map[string]map[string][]byte)
		}
		db.version = snap.Version
		db.chain = snap.Chain
		db.appliedChain = snap.Chain
		hadSnapshot = true
	}

	walPath := filepath.Join(db.dir, walFile)
	walRaw, err := db.fs.ReadFile(walPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvdb: read WAL: %w", err)
	}
	good, rerr := db.replay(walRaw)
	switch {
	case rerr == nil:
		return nil
	case errors.Is(rerr, errTornTail):
		// A power loss tore the append of the final record. Framed
		// records are written front-to-back, so the tear is a strict
		// prefix of one record sitting past the last complete record —
		// and the commit barrier (the acking fsync) is always at a
		// record boundary, so the torn bytes were never acked. Dropping
		// them restores availability without losing durable data;
		// mid-stream corruption (a failed MAC or chain break below)
		// stays fatal.
		if err := db.fs.Truncate(walPath, int64(good)); err != nil {
			return fmt.Errorf("kvdb: truncate torn WAL tail: %w", err)
		}
		db.obs.Log.Warn("kvdb: dropped torn WAL tail left by a crash mid-append (record was never acked)",
			"dir", db.dir, "kept_bytes", good, "dropped_bytes", len(walRaw)-good)
		db.obs.Metrics.Counter("palaemon_kvdb_repairs_total", obs.L("kind", "torn-tail")).Inc()
		return nil
	case hadSnapshot && db.walRecords == 0 && db.staleWAL(walRaw):
		// A power loss hit Compact between publishing the snapshot and
		// truncating the WAL: the WAL on disk is the complete
		// pre-compact history, every record of which is already folded
		// into the snapshot — proven by its chain head hashing out to
		// exactly the snapshot's. Finish the interrupted truncation.
		if err := db.fs.Truncate(walPath, 0); err != nil {
			return fmt.Errorf("kvdb: truncate stale WAL: %w", err)
		}
		db.obs.Log.Warn("kvdb: discarded stale pre-compact WAL left by a crash during Compact (contents verified against snapshot chain)",
			"dir", db.dir, "dropped_bytes", len(walRaw))
		db.obs.Metrics.Counter("palaemon_kvdb_repairs_total", obs.L("kind", "stale-wal")).Inc()
		return nil
	default:
		return rerr
	}
}

// errTornTail marks an incomplete final WAL record — a crash residue,
// not tampering. Internal to load's repair logic.
var errTornTail = errors.New("kvdb: torn WAL tail")

// replay applies raw's records to the in-memory state. It returns the
// byte offset of the last complete, verified record consumed; on a
// torn tail the error wraps errTornTail and the offset tells load
// where to cut.
func (db *DB) replay(raw []byte) (int, error) {
	off := 0
	good := 0
	for off < len(raw) {
		if off+4 > len(raw) {
			return good, fmt.Errorf("%w: truncated length prefix", errTornTail)
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if off+n > len(raw) {
			return good, fmt.Errorf("%w: truncated record", errTornTail)
		}
		sealed := raw[off : off+n]
		off += n
		pt, err := cryptoutil.Open(db.key, sealed, []byte("kvdb-wal"))
		if err != nil {
			return good, fmt.Errorf("%w: WAL record", ErrCorrupt)
		}
		var rec record
		if err := json.Unmarshal(pt, &rec); err != nil {
			return good, fmt.Errorf("%w: WAL decode", ErrCorrupt)
		}
		if rec.Prev != db.chain {
			return good, fmt.Errorf("%w: WAL chain break", ErrCorrupt)
		}
		db.applyLocked(rec)
		db.chain = chainHash(db.chain, pt)
		db.retainLocked(rec, db.chain)
		db.walRecords++
		good = off
	}
	return good, nil
}

// staleWAL reports whether raw is a complete, internally consistent
// record chain whose final head equals the loaded snapshot's chain —
// i.e. the exact history the snapshot already contains. Only such a
// WAL may be discarded: an attacker cannot fabricate one without
// breaking the AEAD or the hash chain, and a WAL with any record the
// snapshot lacks hashes to a different head.
func (db *DB) staleWAL(raw []byte) bool {
	off := 0
	var chain [32]byte
	first := true
	for off < len(raw) {
		if off+4 > len(raw) {
			return false
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if off+n > len(raw) {
			return false
		}
		pt, err := cryptoutil.Open(db.key, raw[off:off+n], []byte("kvdb-wal"))
		if err != nil {
			return false
		}
		off += n
		var rec record
		if err := json.Unmarshal(pt, &rec); err != nil {
			return false
		}
		if first {
			// The pre-compact chain start is whatever the first record
			// claims; what matters is that the chain closes on the
			// snapshot's head.
			chain = rec.Prev
			first = false
		}
		if rec.Prev != chain {
			return false
		}
		chain = chainHash(chain, pt)
	}
	return !first && chain == db.chain
}

// sealRecord seals a plaintext record under key and frames it for the
// WAL (4-byte little-endian length prefix); shared by the local commit
// path and the replica apply path, which re-seals replicated plaintext
// under its own key.
func sealRecord(key cryptoutil.Key, pt []byte) ([]byte, error) {
	sealed, err := cryptoutil.Seal(key, pt, []byte("kvdb-wal"))
	if err != nil {
		return nil, fmt.Errorf("kvdb: seal record: %w", err)
	}
	framed := make([]byte, 4+len(sealed))
	binary.LittleEndian.PutUint32(framed, uint32(len(sealed)))
	copy(framed[4:], sealed)
	return framed, nil
}

// chainHash is SHA-256(prev ‖ payload), fed in two writes so the hot
// path does not copy the payload into a scratch buffer first.
func chainHash(prev [32]byte, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func (db *DB) applyLocked(rec record) {
	db.seq++
	switch rec.Op {
	case "put":
		b := db.data[rec.Bucket]
		if b == nil {
			b = make(map[string][]byte)
			db.data[rec.Bucket] = b
		}
		b[rec.Key] = rec.Value
	case "del":
		if b := db.data[rec.Bucket]; b != nil {
			delete(b, rec.Key)
		}
	case "ver":
		db.version = rec.Version
	}
}

// commit seals a record onto the hash chain and makes it durable. The
// record is chained immediately (so successors seal against the right
// predecessor) and queued; the caller returns once the batch holding its
// record has been written and fsynced, so success implies durability, and
// the in-memory apply happens only after the fsync, so readers never see
// a record a crash could lose.
func (db *DB) commit(rec record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.admitLocked(); err != nil {
		return err
	}
	rec.Prev = db.chain
	pt, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("kvdb: encode record: %w", err)
	}
	framed, err := sealRecord(db.key, pt)
	if err != nil {
		return err
	}
	db.chain = chainHash(db.chain, pt)
	db.pending = append(db.pending, pendingCommit{framed: framed, rec: rec, chain: db.chain})
	db.queued++
	return db.awaitLocked(db.queued)
}

// admitLocked is the gate in front of the queue: it waits out a running
// Compact (which is draining the queue onto the old WAL and must not be
// starved by a steady stream of writers) and refuses a closed or
// poisoned store. Callers hold db.mu.
func (db *DB) admitLocked() error {
	for db.compacting && !db.closed {
		db.commitCond.Wait()
	}
	if db.closed {
		return ErrClosed
	}
	if db.failed != nil {
		return db.poisonedLocked()
	}
	return nil
}

// awaitLocked returns once every record up to ticket is durable and
// applied, or the store is poisoned. While a batch is in flight the
// caller waits for it; a caller that finds the log idle leads the next
// batch itself. Callers hold db.mu; it is released while waiting and
// across the leader's I/O.
func (db *DB) awaitLocked(ticket uint64) error {
	for db.flushed < ticket {
		switch {
		case db.failed != nil:
			// The record sits in or behind a batch that never reached
			// the WAL; nobody past the hole is acked.
			return db.poisonedLocked()
		case db.committing:
			db.commitCond.Wait()
		default:
			db.leadLocked()
		}
	}
	return nil
}

// leadLocked takes the whole queue, writes it to the WAL in one Write,
// fsyncs once, then applies and retains every record of the batch — the
// only place the package writes the WAL. Records hit the file in ticket
// order, which is hash-chain order. db.mu is dropped across the I/O, so
// readers proceed and writers queue the next batch meanwhile. On error
// the store is poisoned and the records queued behind the hole are
// dropped with the batch (their writers fail in awaitLocked). Callers
// hold db.mu with a non-empty queue, no batch in flight, not poisoned.
func (db *DB) leadLocked() {
	batch := db.pending
	db.pending, db.spare = db.spare, nil
	wal, noFsync := db.wal, db.opts.NoFsync
	db.committing = true
	db.batches++
	db.batchedRecords += len(batch)
	db.mu.Unlock()

	buf := batch[0].framed
	if len(batch) > 1 {
		size := 0
		for _, p := range batch {
			size += len(p.framed)
		}
		buf = make([]byte, 0, size)
		for _, p := range batch {
			buf = append(buf, p.framed...)
		}
	}
	//palaemon:allow durablewrite -- WAL append: the batch is durable at the Sync barrier below, not by atomic replace
	_, err := wal.Write(buf)
	if err == nil && !noFsync {
		err = wal.Sync()
	}

	db.mu.Lock()
	db.committing = false
	if err != nil {
		db.failed = fmt.Errorf("kvdb: write WAL batch: %w", err)
		db.pending = nil
	} else {
		for _, p := range batch {
			db.applyLocked(p.rec)
			db.retainLocked(p.rec, p.chain)
			db.walRecords++
		}
		db.flushed += uint64(len(batch))
	}
	clear(batch)
	db.spare = batch[:0]
	db.commitCond.Broadcast()
}

// poisonedLocked wraps db.failed; callers hold db.mu and have checked it.
func (db *DB) poisonedLocked() error {
	return fmt.Errorf("kvdb: write failed earlier, database poisoned: %w", db.failed)
}

// flushLocked returns once nothing is queued or in flight: every record
// enqueued so far is in the WAL file, or the store is poisoned and the
// queue was dropped. Callers hold db.mu.
func (db *DB) flushLocked() {
	_ = db.awaitLocked(db.queued) // a poisoned store has nothing left to flush; callers check db.failed
}

// Put stores value under bucket/key.
func (db *DB) Put(bucket, key string, value []byte) error {
	return db.commit(record{Op: "put", Bucket: bucket, Key: key, Value: append([]byte(nil), value...)})
}

// Get returns the value under bucket/key.
func (db *DB) Get(bucket, key string) ([]byte, error) {
	db.reads.Add(1)
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.failed != nil {
		// After a batch write failure the store can neither accept writes
		// nor vouch for its chain; a half-failed instance must not keep
		// serving as if healthy.
		return nil, db.poisonedLocked()
	}
	b := db.data[bucket]
	if b == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, bucket, key)
	}
	v, ok := b[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, bucket, key)
	}
	return append([]byte(nil), v...), nil
}

// Delete removes bucket/key (no error if absent).
func (db *DB) Delete(bucket, key string) error {
	return db.commit(record{Op: "del", Bucket: bucket, Key: key})
}

// Keys lists the keys in a bucket, unordered. Like Get, it refuses to
// serve a closed or poisoned database — an empty store and a broken one
// must not look alike.
func (db *DB) Keys(bucket string) ([]string, error) {
	db.reads.Add(1)
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.failed != nil {
		return nil, db.poisonedLocked()
	}
	b := db.data[bucket]
	out := make([]string, 0, len(b))
	for k := range b {
		out = append(out, k)
	}
	return out, nil
}

// Version returns the database version used by the rollback-protection
// protocol (the paper's v, Fig 6).
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// SetVersion durably records a new version.
func (db *DB) SetVersion(v uint64) error {
	return db.commit(record{Op: "ver", Version: v})
}

// Compact writes a fresh snapshot and truncates the WAL.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	// Queued records must be on the old WAL before it is truncated. The
	// compacting flag stalls new enqueues (admitLocked) — the flush
	// releases db.mu, so without the flag a steady writer stream could
	// starve the drain forever.
	db.compacting = true
	defer func() {
		db.compacting = false
		db.commitCond.Broadcast()
	}()
	db.flushLocked()
	if db.closed {
		// Close slipped in while the flush wait released db.mu.
		return ErrClosed
	}
	if db.failed != nil {
		return fmt.Errorf("kvdb: compact after write failure: %w", db.failed)
	}
	return db.snapshotLocked()
}

// snapshotLocked writes the current applied state as the snapshot and
// truncates the WAL. Callers hold db.mu with no batch in flight.
func (db *DB) snapshotLocked() error {
	snap := snapshot{Data: db.data, Version: db.version, Chain: db.chain}
	pt, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("kvdb: encode snapshot: %w", err)
	}
	sealed, err := cryptoutil.Seal(db.key, pt, []byte("kvdb-snapshot"))
	if err != nil {
		return fmt.Errorf("kvdb: seal snapshot: %w", err)
	}
	// fsatomic: the snapshot must be ON DISK (fsync + atomic rename +
	// directory sync) before the WAL that also holds these records is
	// truncated, or a crash between the two loses committed data.
	if err := fsatomic.WriteFileFS(db.fs, filepath.Join(db.dir, snapshotFile), sealed, 0o600); err != nil {
		return fmt.Errorf("kvdb: write snapshot: %w", err)
	}
	if err := db.wal.Close(); err != nil {
		return fmt.Errorf("kvdb: close WAL: %w", err)
	}
	wal, err := db.fs.OpenFile(filepath.Join(db.dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("kvdb: truncate WAL: %w", err)
	}
	db.wal = wal
	db.walRecords = 0
	return nil
}

// Seq returns the commit sequence: the count of records applied to the
// in-memory state this process (replayed at Open or committed since).
// A record counts only once its batch is durable, so a snapshot taken
// at Seq() == s can never contain data a crash would lose. Read-side
// caches use it to stamp decoded snapshots.
func (db *DB) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// Reads reports how many Get/Keys lookups the store served — the
// denominator for read-path cache-effectiveness accounting (a cache hit
// is a db read that never happened).
func (db *DB) Reads() uint64 { return db.reads.Load() }

// CommitStats reports how many WAL batches were written and how many
// records they carried; averageBatch = records/batches.
func (db *DB) CommitStats() (batches, records int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.batches, db.batchedRecords
}

// WALRecords reports records since the last snapshot (compaction heuristic).
func (db *DB) WALRecords() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walRecords
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	// Wake writers stalled behind a Compact (they get ErrClosed), then
	// drain: queued records still reach the WAL before the fd goes away.
	db.commitCond.Broadcast()
	db.flushLocked()
	if err := db.wal.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		db.wal.Close()
		return fmt.Errorf("kvdb: final fsync: %w", err)
	}
	return db.wal.Close()
}

// CopyTo writes a byte-for-byte copy of the on-disk state to dst, used by
// tests to capture a state an attacker later "rolls back" to.
func (db *DB) CopyTo(dst string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	for _, name := range []string{snapshotFile, walFile} {
		src, err := os.Open(filepath.Join(db.dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, name))
		if err != nil {
			src.Close()
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			src.Close()
			out.Close()
			return err
		}
		src.Close()
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
}

// RestoreFrom overwrites the on-disk state in dir with the copy at src —
// the attacker's rollback primitive used by tests. The database must be
// closed; reopen with Open afterwards.
func RestoreFrom(dir, src string) error {
	for _, name := range []string{snapshotFile, walFile} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, os.ErrNotExist) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if err != nil {
			return err
		}
		//palaemon:allow durablewrite -- attacker rollback primitive for tests: non-durable restore is the scenario under test
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			return err
		}
	}
	return nil
}
