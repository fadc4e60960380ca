package mcounter

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
)

func TestPlatformAdapter(t *testing.T) {
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Clock: simclock.NewVirtual(), Model: model})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlatform(p, "test")
	for i := 1; i <= 3; i++ {
		v, err := c.Increment()
		if err != nil {
			t.Fatalf("Increment: %v", err)
		}
		if v != uint64(i) {
			t.Fatalf("value %d, want %d", v, i)
		}
	}
	if v, _ := c.Value(); v != 3 {
		t.Fatalf("Value = %d, want 3", v)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOSFileCounterPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "counter")
	backend := &OSFileBackend{Path: path}
	c, err := NewFileCounter(backend, WithWriteThrough())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Increment(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewFileCounter(backend)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c2.Value()
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("reloaded value %d, want 10", v)
	}
}

func TestMemBackendFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "counter")
	under := &OSFileBackend{Path: path}
	mem := &MemBackend{Under: under}
	c, err := NewFileCounter(mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Increment(); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing reached the file yet: increments stay inside the "enclave".
	raw, err := under.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatal("mem backend leaked to disk before close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := NewFileCounter(&MemBackend{Under: under})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Value(); v != 5 {
		t.Fatalf("value after flush %d, want 5", v)
	}
}

func TestFileCounterClosed(t *testing.T) {
	c, err := NewFileCounter(&MemBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Increment(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Increment after close: %v", err)
	}
	if _, err := c.Value(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Value after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestFileCounterCorruptState(t *testing.T) {
	mem := &MemBackend{}
	if err := mem.Store([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileCounter(mem); err == nil {
		t.Fatal("accepted corrupt counter state")
	}
}

// flakyBackend wraps a Backend and fails Store while failing is set.
type flakyBackend struct {
	Backend
	mu      sync.Mutex
	failing bool
	errs    int
}

func (b *flakyBackend) setFailing(v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failing = v
}

func (b *flakyBackend) Store(raw []byte) error {
	b.mu.Lock()
	failing := b.failing
	if failing {
		b.errs++
	}
	b.mu.Unlock()
	if failing {
		return errors.New("flaky: store failed")
	}
	return b.Backend.Store(raw)
}

func TestWriteThroughRollsBackOnStoreFailure(t *testing.T) {
	backend := &flakyBackend{Backend: &MemBackend{}}
	c, err := NewFileCounter(backend, WithWriteThrough())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Increment(); err != nil {
		t.Fatal(err)
	}

	backend.setFailing(true)
	if _, err := c.Increment(); err == nil {
		t.Fatal("increment succeeded with failing backend")
	}
	if v, _ := c.Value(); v != 1 {
		t.Fatalf("failed increment left value %d, want 1", v)
	}

	// The next successful increment must hand out 2, not 3.
	backend.setFailing(false)
	v, err := c.Increment()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("value after recovery %d, want 2", v)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// And Close must not have persisted the failed bump either.
	c2, err := NewFileCounter(backend)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Value(); v != 2 {
		t.Fatalf("persisted value %d, want 2", v)
	}
	if backend.errs == 0 {
		t.Fatal("test never exercised the failing path")
	}
}

func TestOSFileBackendLoadStoreConcurrent(t *testing.T) {
	// Load must not race Store's WriteAt through the held descriptor; run
	// both concurrently under -race and check Load only ever sees full
	// 8-byte snapshots.
	backend := &OSFileBackend{Path: filepath.Join(t.TempDir(), "counter")}
	if err := backend.Store([]byte{0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			buf[0] = byte(i)
			if err := backend.Store(buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		raw, err := backend.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != 8 {
			t.Fatalf("partial read: %d bytes", len(raw))
		}
	}
	close(stop)
	wg.Wait()
	if err := backend.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMonotonicity(t *testing.T) {
	// Property: values returned by Increment are strictly increasing for
	// any interleaving of increments.
	f := func(n uint8) bool {
		c, err := NewFileCounter(&MemBackend{})
		if err != nil {
			return false
		}
		defer c.Close()
		var prev uint64
		for i := 0; i < int(n%64)+1; i++ {
			v, err := c.Increment()
			if err != nil || v <= prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
