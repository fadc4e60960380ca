package kvdb

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"palaemon/internal/cryptoutil"
	"palaemon/internal/fault"
)

func testKey(t *testing.T) cryptoutil.Key {
	t.Helper()
	k, err := cryptoutil.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestEntriesIteratorAndTruncation(t *testing.T) {
	db, err := Open(t.TempDir(), testKey(t), Options{RetainEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 10; i++ {
		if err := db.Put("b", string(rune('a'+i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The window holds at most 4 entries; from=0 fell out of it.
	if _, err := db.Entries(0, 0); !errors.Is(err, ErrEntriesTruncated) {
		t.Fatalf("Entries(0) = %v, want ErrEntriesTruncated", err)
	}
	// A position inside the window tails normally and contiguously.
	got, err := db.Entries(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 9 || got[1].Seq != 10 {
		t.Fatalf("Entries(8) = %+v, want seqs 9,10", got)
	}
	if got[1].Prev != got[0].Chain {
		t.Fatal("entries are not chain-linked")
	}
	// At the head there is nothing to return.
	if got, err := db.Entries(10, 0); err != nil || len(got) != 0 {
		t.Fatalf("Entries(head) = %v, %v", got, err)
	}
	// Ahead of the head is a caller bug, reported as such.
	if _, err := db.Entries(11, 0); err == nil {
		t.Fatal("Entries past head succeeded")
	}
}

func TestEntriesDisabledByDefault(t *testing.T) {
	db, err := Open(t.TempDir(), testKey(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Entries(0, 0); !errors.Is(err, ErrEntriesDisabled) {
		t.Fatalf("Entries on retention-less store = %v, want ErrEntriesDisabled", err)
	}
}

func TestTailFromWakesOnCommit(t *testing.T) {
	db, err := Open(t.TempDir(), testKey(t), Options{RetainEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	type tailResult struct {
		entries []Entry
		err     error
	}
	res := make(chan tailResult, 1)
	go func() {
		es, err := db.TailFrom(context.Background(), 0, 0)
		res <- tailResult{es, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the tail park
	if err := db.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.err != nil || len(r.entries) != 1 || r.entries[0].Seq != 1 {
			t.Fatalf("tail woke with %+v, %v", r.entries, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TailFrom never woke after a commit")
	}

	// A context expiry surfaces as the context error, not as entries.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := db.TailFrom(ctx, db.Seq(), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TailFrom at head = %v, want deadline exceeded", err)
	}
}

// gateFS blocks WAL fsyncs once armed: each Sync signals syncing and
// then waits for one token on release. It turns the commit durability
// barrier into an explicit test checkpoint. With writes set it parks
// WAL Writes the same way instead, before they reach the inner FS.
type gateFS struct {
	fault.FS
	mu      sync.Mutex
	armed   bool
	writes  bool
	syncing chan struct{}
	release chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{FS: fault.OS, syncing: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gateFS) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gateFS) disarm() {
	g.mu.Lock()
	g.armed = false
	g.mu.Unlock()
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, walFile) {
		return f, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	fault.File
	g *gateFS
}

func (f *gatedFile) park(write bool) {
	f.g.mu.Lock()
	armed := f.g.armed && f.g.writes == write
	f.g.mu.Unlock()
	if armed {
		f.g.syncing <- struct{}{}
		<-f.g.release
	}
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.park(true)
	return f.File.Write(p)
}

func (f *gatedFile) Sync() error {
	f.park(false)
	return f.File.Sync()
}

// TestGroupCommitBatchObservedAtomically pins the replication contract of
// the commit barrier: records written to the WAL file but not yet
// fsynced are invisible to Entries — a batch appears all at once, after
// its fsync, never as a partial prefix.
func TestGroupCommitBatchObservedAtomically(t *testing.T) {
	gate := newGateFS()
	db, err := Open(t.TempDir(), testKey(t), Options{RetainEntries: -1, FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gate.arm()

	var wg sync.WaitGroup
	put := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Put("b", key, []byte(key)); err != nil {
				t.Errorf("put %s: %v", key, err)
			}
		}()
	}

	// First writer: its batch is written and now parked on the fsync.
	put("w0")
	<-gate.syncing
	// Three more writers queue up behind the blocked barrier.
	put("w1")
	put("w2")
	put("w3")
	time.Sleep(50 * time.Millisecond) // let them enqueue into the pending queue

	// Nothing is durable yet, so nothing may be observable: the first
	// record is already in the WAL file, but its fsync has not returned.
	if got, err := db.Entries(0, 0); err != nil || len(got) != 0 {
		t.Fatalf("entries visible before the durability barrier: %v, %v", got, err)
	}

	// Release the first barrier: batch 1 (one record) becomes visible.
	gate.release <- struct{}{}
	// One of the queued writers leads batch 2 (three records) and parks
	// on its fsync; the write has hit the file by the time syncing
	// signals, yet none of the three records may be observable.
	<-gate.syncing
	got, err := db.Entries(0, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("after batch 1: entries = %+v, %v; want exactly the first batch", got, err)
	}

	// Release batch 2: all three appear together.
	gate.release <- struct{}{}
	wg.Wait()
	gate.disarm() // Close fsyncs the WAL; let it through
	got, err = db.Entries(0, 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("after batch 2: entries = %d, %v; want 4", len(got), err)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.Prev != got[i-1].Chain {
			t.Fatalf("entry %d breaks the chain", i)
		}
	}
}

// TestReplicaFollowsLeader proves the full follower path: bootstrap from
// an exported state, verified apply of tailed entries under a DIFFERENT
// database key, durability of the replica across reopen, and rejection
// of tampered/reordered feeds.
func TestReplicaFollowsLeader(t *testing.T) {
	leaderKey, followerKey := testKey(t), testKey(t)
	leader, err := Open(t.TempDir(), leaderKey, Options{RetainEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	if err := leader.Put("policies", "alpha", []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := leader.SetVersion(7); err != nil {
		t.Fatal(err)
	}

	st, err := leader.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	followerDir := t.TempDir()
	follower, err := Open(followerDir, followerKey, Options{RetainEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ImportReplica(st); err != nil {
		t.Fatal(err)
	}
	// Importing over existing state is refused.
	if err := follower.ImportReplica(st); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("second import = %v, want ErrNotEmpty", err)
	}

	// More leader traffic after the bootstrap point.
	if err := leader.Put("policies", "beta", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete("policies", "alpha"); err != nil {
		t.Fatal(err)
	}
	entries, err := leader.Entries(st.Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("tail returned %d entries, want 2", len(entries))
	}

	// Tampered value: chain hash no longer matches.
	bad := append([]Entry(nil), entries...)
	bad[0].Value = []byte("evil")
	if err := follower.AppendReplica(bad); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("tampered feed = %v, want ErrReplicaDiverged", err)
	}
	// Skipped record: seq/prev mismatch.
	if err := follower.AppendReplica(entries[1:]); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("skipping feed = %v, want ErrReplicaDiverged", err)
	}
	// A rejected batch leaves the replica untouched and the real batch
	// still applies.
	if err := follower.AppendReplica(entries); err != nil {
		t.Fatal(err)
	}
	// Replaying the same batch is a divergence, not a silent double-apply.
	if err := follower.AppendReplica(entries); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("replayed feed = %v, want ErrReplicaDiverged", err)
	}

	if follower.Seq() != leader.Seq() || follower.Version() != leader.Version() {
		t.Fatalf("replica position (%d, v%d) != leader (%d, v%d)",
			follower.Seq(), follower.Version(), leader.Seq(), leader.Version())
	}
	if _, err := follower.Get("policies", "alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatal("replica did not apply the delete")
	}
	if v, err := follower.Get("policies", "beta"); err != nil || string(v) != "b1" {
		t.Fatalf("replica beta = %q, %v", v, err)
	}

	// The replica is durable under its own key: reopen from disk.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(followerDir, followerKey, Options{})
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	defer reopened.Close()
	if v, err := reopened.Get("policies", "beta"); err != nil || string(v) != "b1" {
		t.Fatalf("reopened replica beta = %q, %v", v, err)
	}
	if reopened.Version() != 7 {
		t.Fatalf("reopened replica version = %d, want 7", reopened.Version())
	}
}

// TestExportStateConsistentUnderGroupCommit pins the bootstrap contract
// the fleet follower depends on: an export taken WHILE commit batches
// are in flight must pair the applied Seq with the applied chain
// head, so the first feed entry past the export extends it. The enqueue
// head advances before the fsync; exporting it alongside the applied seq
// hands a follower a chain that entry Seq+1's Prev can never match, and
// the follower (correctly) refuses the feed as diverged.
func TestExportStateConsistentUnderGroupCommit(t *testing.T) {
	db, err := Open(t.TempDir(), testKey(t), Options{RetainEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Put("b", string(rune('a'+w)), []byte{byte(i)}); err != nil {
					return
				}
			}
		}(w)
	}

	checked := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && checked < 200 {
		st, err := db.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		next, err := db.Entries(st.Seq, 1)
		if err != nil || len(next) == 0 {
			continue // window moved or head quiet; only link checks count
		}
		if next[0].Seq != st.Seq+1 {
			continue // entries truncated between the two calls
		}
		if next[0].Prev != st.Chain {
			close(stop)
			wg.Wait()
			t.Fatalf("export at seq %d has chain head %x, but entry %d extends %x",
				st.Seq, st.Chain[:4], next[0].Seq, next[0].Prev[:4])
		}
		checked++
	}
	close(stop)
	wg.Wait()
	if checked == 0 {
		t.Fatal("no export/feed pair was ever checked")
	}
}
