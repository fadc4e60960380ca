// Package mcounter implements the monotonic counter variants compared in the
// paper's Fig 10.
//
// The SGX platform counter manages roughly 13–20 increments per second and
// wears out; PALÆMON therefore bumps it only once per service lifecycle
// (§IV-D) and lets applications use file-based counters protected by the
// file-system shield, which are about five orders of magnitude faster:
//
//	(a) platform counter            — rate-limited hardware NVRAM
//	(b) plain file, native          — read/increment/write, no enclave
//	(c) plain file inside SGX       — file memory-mapped by the runtime
//	(d) encrypted file (shield)     — transparent AES-GCM with caching
//	(e) encrypted + strict mode     — (d) plus tag push to PALÆMON
//
// Variants (b)–(e) share the FileCounter implementation parameterised by a
// Backend; the fspf and runtime packages supply backends (d) and (e).
package mcounter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"palaemon/internal/sgx"
)

// Counter is a monotonically increasing persistent counter.
type Counter interface {
	// Increment bumps the counter by one and returns the new value.
	Increment() (uint64, error)
	// Value returns the current value without incrementing.
	Value() (uint64, error)
	// Close releases resources, persisting the final value.
	Close() error
}

// ErrClosed reports use after Close.
var ErrClosed = errors.New("mcounter: counter is closed")

// Platform adapts an sgx.PlatformCounter to the Counter interface.
type Platform struct {
	c *sgx.PlatformCounter
}

var _ Counter = (*Platform)(nil)

// NewPlatform wraps the named hardware counter of p.
func NewPlatform(p *sgx.Platform, name string) *Platform {
	return &Platform{c: p.Counter(name)}
}

// Increment bumps the hardware counter (blocking on its rate limit).
func (p *Platform) Increment() (uint64, error) { return p.c.Increment() }

// Value reads the hardware counter.
func (p *Platform) Value() (uint64, error) { return p.c.Value(), nil }

// Close is a no-op for hardware counters.
func (p *Platform) Close() error { return nil }

// Backend abstracts where a FileCounter stores its 8 bytes; this is the knob
// that distinguishes the Fig 10 variants.
type Backend interface {
	// Load reads the stored counter bytes (nil, nil if absent).
	Load() ([]byte, error)
	// Store persists the counter bytes.
	Store([]byte) error
	// Sync flushes any caching layer (called by Close).
	Sync() error
}

// FileCounter keeps a uint64 in a Backend. Matching the paper's variant (b)
// setup, the value is held open/cached and written back on every increment;
// durability to the backing store is ensured at Close ("closing the file
// upon exit").
type FileCounter struct {
	mu      sync.Mutex
	backend Backend
	value   uint64
	closed  bool
	// writeThrough forces a backend Store on every increment (variant (b)
	// without the runtime's memory-mapping optimisation).
	writeThrough bool
}

var _ Counter = (*FileCounter)(nil)

// Option configures a FileCounter.
type Option func(*FileCounter)

// WithWriteThrough stores to the backend on every increment instead of only
// at Close. Native file counters (variant b) are write-through; the SCONE
// runtime memory-maps the file and flushes on close (variants c–e).
func WithWriteThrough() Option {
	return func(f *FileCounter) { f.writeThrough = true }
}

// NewFileCounter opens (or creates) a counter on the backend.
func NewFileCounter(backend Backend, opts ...Option) (*FileCounter, error) {
	raw, err := backend.Load()
	if err != nil {
		return nil, fmt.Errorf("mcounter: load: %w", err)
	}
	f := &FileCounter{backend: backend}
	if len(raw) == 8 {
		f.value = binary.LittleEndian.Uint64(raw)
	} else if len(raw) != 0 {
		return nil, fmt.Errorf("mcounter: corrupt counter state (%d bytes)", len(raw))
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}

// Increment bumps the counter.
func (f *FileCounter) Increment() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	f.value++
	if f.writeThrough {
		if err := f.store(); err != nil {
			// In write-through mode the backend write IS the increment:
			// roll the in-memory value back so a later Close does not
			// persist a value the caller was told failed, and the next
			// successful increment does not skip one.
			f.value--
			return 0, err
		}
	}
	return f.value, nil
}

// Value returns the current value.
func (f *FileCounter) Value() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	return f.value, nil
}

// Close persists the final value and flushes the backend.
func (f *FileCounter) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if err := f.store(); err != nil {
		return err
	}
	if err := f.backend.Sync(); err != nil {
		return fmt.Errorf("mcounter: sync: %w", err)
	}
	f.closed = true
	return nil
}

func (f *FileCounter) store() error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], f.value)
	if err := f.backend.Store(buf[:]); err != nil {
		return fmt.Errorf("mcounter: store: %w", err)
	}
	return nil
}

// OSFileBackend stores the counter in a real file on disk (variant b). As
// in the paper's setup, the file is opened once and the value written back
// in place on every increment; it is closed (and optionally fsynced) on
// exit.
type OSFileBackend struct {
	// Path is the counter file location.
	Path string
	// Fsync issues an fsync on every Store, for durability experiments.
	Fsync bool

	mu sync.Mutex
	f  *os.File
}

var _ Backend = (*OSFileBackend)(nil)

// Load reads the file, treating absence as an empty counter. It takes the
// backend lock — and reads through the held descriptor when Store has one
// open — so a Load can never observe a concurrent Store's WriteAt half-done.
func (b *OSFileBackend) Load() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f != nil {
		st, err := b.f.Stat()
		if err != nil {
			return nil, err
		}
		raw := make([]byte, st.Size())
		if _, err := io.ReadFull(io.NewSectionReader(b.f, 0, st.Size()), raw); err != nil {
			return nil, err
		}
		return raw, nil
	}
	raw, err := os.ReadFile(b.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// Store writes the value in place through a held descriptor.
func (b *OSFileBackend) Store(raw []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		f, err := os.OpenFile(b.Path, os.O_CREATE|os.O_RDWR, 0o600)
		if err != nil {
			return err
		}
		b.f = f
	}
	if _, err := b.f.WriteAt(raw, 0); err != nil {
		return err
	}
	if b.Fsync {
		return b.f.Sync()
	}
	return nil
}

// Sync flushes and closes the held descriptor ("closing the file upon
// exit"). A later Store reopens it.
func (b *OSFileBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	if err := b.f.Sync(); err != nil {
		b.f.Close()
		b.f = nil
		return err
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// MemBackend keeps the counter in memory, modelling the SCONE runtime's
// memory-mapped file (variant c): increments never leave the enclave until
// Close flushes to the underlying backend.
type MemBackend struct {
	mu    sync.Mutex
	cache []byte
	// Under, when non-nil, receives the bytes on Sync (the mmap'd file).
	Under Backend
}

var _ Backend = (*MemBackend)(nil)

// Load returns the cached bytes, falling through to Under on first use.
func (b *MemBackend) Load() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cache != nil {
		return append([]byte(nil), b.cache...), nil
	}
	if b.Under == nil {
		return nil, nil
	}
	raw, err := b.Under.Load()
	if err != nil {
		return nil, err
	}
	b.cache = append([]byte(nil), raw...)
	return raw, nil
}

// Store updates the cache only.
func (b *MemBackend) Store(raw []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cache = append(b.cache[:0], raw...)
	return nil
}

// Sync flushes the cache to the underlying backend.
func (b *MemBackend) Sync() error {
	b.mu.Lock()
	raw := append([]byte(nil), b.cache...)
	under := b.Under
	b.mu.Unlock()
	if under == nil || raw == nil {
		return nil
	}
	if err := under.Store(raw); err != nil {
		return err
	}
	return under.Sync()
}
