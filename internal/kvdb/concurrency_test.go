package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"palaemon/internal/cryptoutil"
)

// TestGroupCommitRoundTrip writes from many goroutines, so records reach
// the WAL in multi-record batches, and verifies every record survives a
// reopen: a batch replays exactly like the same records written one by
// one.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustNewKey()
	db, err := Open(dir, key, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := db.Put("b", k, []byte(k)); err != nil {
					t.Errorf("Put %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := db.WALRecords(); got != writers*perWriter {
		t.Fatalf("WAL records %d, want %d", got, writers*perWriter)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, key, Options{})
	if err != nil {
		t.Fatalf("reopen group-committed DB: %v", err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-k%d", w, i)
			v, err := db2.Get("b", k)
			if err != nil || !bytes.Equal(v, []byte(k)) {
				t.Fatalf("Get %s = %q, %v", k, v, err)
			}
		}
	}
}

// TestGroupCommitTamperingDetected proves batched commits preserve the
// corruption invariants: flipping a mid-stream byte in the WAL written
// by batched commits must still fail replay with ErrCorrupt, while
// cutting the tail is a torn final record — a crash artifact, not
// tampering — that reopen repairs, serving every record before the
// tear.
func TestGroupCommitTamperingDetected(t *testing.T) {
	for _, mode := range []string{"tamper", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			key := cryptoutil.MustNewKey()
			db, err := Open(dir, key, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						if err := db.Put("b", fmt.Sprintf("w%d-%d", w, i), []byte("value")); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walFile)
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "tamper" {
				// Flip a byte inside the FIRST record's sealed payload (the
				// frame is a 4-byte length prefix, then ciphertext). A flip
				// at an arbitrary offset can land in a later record's length
				// prefix, which reads as a record running past EOF — a torn
				// tail that reopen legitimately repairs — not tampering.
				raw[4+1] ^= 1
			} else {
				raw = raw[:len(raw)-7]
			}
			if err := os.WriteFile(walPath, raw, 0o600); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir, key, Options{})
			if mode == "tamper" {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("want ErrCorrupt, got %v", err)
				}
				return
			}
			// Torn tail: reopen repairs by dropping the partial final
			// record. Every batch but the torn one replays, so most of
			// the 40 writes must still be served.
			if err != nil {
				t.Fatalf("torn tail must repair, got %v", err)
			}
			defer db2.Close()
			served := 0
			for w := 0; w < 4; w++ {
				for i := 0; i < 10; i++ {
					v, err := db2.Get("b", fmt.Sprintf("w%d-%d", w, i))
					switch {
					case err == nil && string(v) == "value":
						served++
					case errors.Is(err, ErrNotFound):
						// lost with the torn record
					default:
						t.Fatalf("Get w%d-%d: %q, %v", w, i, v, err)
					}
				}
			}
			if served == 0 {
				t.Fatal("repair served none of the pre-tear records")
			}
			// The repaired log must accept and persist new writes.
			if err := db2.Put("b", "post-repair", []byte("ok")); err != nil {
				t.Fatalf("post-repair Put: %v", err)
			}
		})
	}
}

// TestGroupCommitCompact interleaves batched writers with compaction and
// verifies nothing is lost across the snapshot + WAL truncation.
func TestGroupCommitCompact(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustNewKey()
	db, err := Open(dir, key, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Put("b", fmt.Sprintf("w%d-%d", w, i), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 && w == 0 {
					if err := db.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, key, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := db2.Get("b", fmt.Sprintf("w%d-%d", w, i)); err != nil {
				t.Fatalf("lost w%d-%d: %v", w, i, err)
			}
		}
	}
}

// TestParallelPutGetCompactClose is the -race regression: every public
// operation racing against Close must either succeed or fail with ErrClosed,
// never crash or corrupt.
func TestParallelPutGetCompactClose(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustNewKey()
	db, err := Open(dir, key, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var closed atomic.Bool
	check := func(err error) {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				check(db.Put("b", fmt.Sprintf("w%d-%d", w, i), []byte("v")))
				if _, err := db.Get("b", fmt.Sprintf("w%d-%d", w, i)); err != nil &&
					!errors.Is(err, ErrClosed) && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
				}
				if _, err := db.Keys("b"); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Keys: %v", err)
				}
				db.Version()
				db.WALRecords()
				if i%17 == 16 {
					check(db.Delete("b", fmt.Sprintf("w%d-%d", w, i-1)))
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := db.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Compact: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Close while traffic is still flowing.
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		closed.Store(true)
	}()
	wg.Wait()
	if !closed.Load() {
		t.Fatal("close never ran")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
