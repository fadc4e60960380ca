package kvdb

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"palaemon/internal/fault"
)

// within fails the test unless fn returns inside the deadline; the
// commit-path tests use it so a regression shows up as a named failure
// instead of the package timeout.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// TestReadersNeverWaitBehindFsync parks a Put inside its WAL fsync and
// requires every read-side call to return meanwhile with the pre-Put
// state: db.mu is not held across the fsync, and a record is applied
// only after it.
func TestReadersNeverWaitBehindFsync(t *testing.T) {
	gate := newGateFS()
	db, err := Open(t.TempDir(), testKey(t), Options{FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("b", "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetVersion(3); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	putErr := make(chan error, 1)
	go func() { putErr <- db.Put("b", "k", []byte("new")) }()
	<-gate.syncing
	released := false
	release := func() {
		if !released {
			released = true
			gate.disarm()
			gate.release <- struct{}{}
		}
	}
	defer release() // a failing assertion must not leave the Put parked under Close

	within(t, "reads beside a parked fsync", func() {
		if v, err := db.Get("b", "k"); err != nil || string(v) != "old" {
			t.Errorf("Get during fsync = %q, %v; want the pre-Put value", v, err)
		}
		if keys, err := db.Keys("b"); err != nil || len(keys) != 1 {
			t.Errorf("Keys during fsync = %v, %v", keys, err)
		}
		if seq := db.Seq(); seq != 2 {
			t.Errorf("Seq during fsync = %d, want 2", seq)
		}
		if v := db.Version(); v != 3 {
			t.Errorf("Version during fsync = %d, want 3", v)
		}
		st, err := db.ExportState()
		if err != nil || st.Seq != 2 || string(st.Data["b"]["k"]) != "old" {
			t.Errorf("ExportState during fsync = %+v, %v; want the pre-Put state", st, err)
		}
	})

	release()
	if err := <-putErr; err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get("b", "k"); err != nil || string(v) != "new" {
		t.Fatalf("Get after fsync = %q, %v", v, err)
	}
}

// TestPoisonFailsWritersBehindTheHole fails the WAL write of a batch
// while more writers are queued behind it: nobody in or behind the
// failed batch is acked, the store refuses further use, nothing hangs,
// and a reboot holds exactly the record acked before the fault.
func TestPoisonFailsWritersBehindTheHole(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	// Mutating ops through the injector: the acked Put's Write and Sync
	// are steps 1 and 2; step 3 is the doomed batch's Write.
	gate := newGateFS()
	gate.FS = fault.NewInjector(fault.OS, fault.Plan{Step: 3, Mode: fault.ErrIO})
	gate.writes = true
	db, err := Open(dir, key, Options{FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("b", "acked", []byte("v")); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	const behind = 3
	errs := make(chan error, 1+behind)
	var wg sync.WaitGroup
	put := func(k string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- db.Put("b", k, []byte("v"))
		}()
	}
	put("in-batch")
	<-gate.syncing // its one-record batch is parked just before the Write
	for _, k := range []string{"behind-1", "behind-2", "behind-3"} {
		put(k)
	}
	deadline := time.Now().Add(5 * time.Second)
	for queued := 0; queued < behind; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writers queued behind the in-flight batch", queued, behind)
		}
		time.Sleep(time.Millisecond)
		db.mu.RLock()
		queued = len(db.pending)
		db.mu.RUnlock()
	}
	gate.disarm()
	gate.release <- struct{}{}
	within(t, "writers in and behind the failed batch", wg.Wait)
	close(errs)
	for err := range errs {
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("writer in or behind the failed batch got %v, want the injected error", err)
		}
	}

	if err := db.Put("b", "later", []byte("v")); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Put on poisoned store = %v", err)
	}
	if _, err := db.Get("b", "acked"); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Get on poisoned store = %v", err)
	}
	within(t, "Compact on poisoned store", func() {
		if err := db.Compact(); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("Compact on poisoned store = %v", err)
		}
	})
	within(t, "Close on poisoned store", func() { db.Close() })

	reopened, err := Open(dir, key, Options{})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer reopened.Close()
	keys, err := reopened.Keys("b")
	if err != nil || len(keys) != 1 || keys[0] != "acked" {
		t.Fatalf("after reboot keys = %v, %v; want exactly the record acked before the fault", keys, err)
	}
}

// soloPutAllocs is what one Put of a 128-byte value allocated on the
// per-record path this one replaced (measured there with the same
// AllocsPerRun loop): the value copy, the record's JSON, the seal and its
// frame, and the chain hash. The queue slot must stay free.
const soloPutAllocs = 9

// TestSoloPutAllocBudget pins what one uncontended Put allocates, so a
// change that makes the solo path pay for batching machinery (a channel,
// a queue slot, a batch copy) fails here and not first in the
// benchmark's allocs_per_op bound.
func TestSoloPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	db, err := Open(t.TempDir(), testKey(t), Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	value := make([]byte, 128)
	// Two warm-up Puts size both queue slices.
	for i := 0; i < 2; i++ {
		if err := db.Put("b", "k", value); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if err := db.Put("b", "k", value); err != nil {
			t.Fatal(err)
		}
	})
	if got > soloPutAllocs {
		t.Fatalf("solo Put allocates %.0f objects, budget %d", got, soloPutAllocs)
	}
}

// TestOpenStartsNoGoroutine: the commit path runs on its callers'
// goroutines, so a store owns none of its own. The count is process-wide
// and stragglers of earlier tests may still be exiting, hence "no more
// than before" rather than "equal".
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := Open(t.TempDir(), testKey(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines with a store open, %d before Open", n, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before Open", n, before)
	}
}
