package fault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"

	"palaemon/internal/cryptoutil"
)

var (
	// ErrCrashed reports that the simulated machine has lost power: the
	// scripted fault point was reached and every subsequent filesystem
	// operation fails until the "machine" is rebooted (a fresh FS over
	// the same directory).
	ErrCrashed = errors.New("fault: simulated crash")
	// ErrInjected reports a scripted I/O error (EIO-class) after which
	// the process is still running — the error-handling path under test.
	ErrInjected = errors.New("fault: injected I/O error")
)

// OpKind classifies a mutating filesystem operation — the unit the
// crash-consistency harness enumerates over.
type OpKind string

const (
	// OpWrite is a File.Write on a file opened through the injector.
	OpWrite OpKind = "write"
	// OpSync is a File.Sync (files and directories alike).
	OpSync OpKind = "sync"
	// OpRename is an FS.Rename (the atomic-replace publish step).
	OpRename OpKind = "rename"
	// OpRemove is an FS.Remove.
	OpRemove OpKind = "remove"
	// OpTruncate is an FS.Truncate.
	OpTruncate OpKind = "truncate"
	// OpOpenTrunc is an FS.OpenFile carrying O_TRUNC — it destroys the
	// previous contents at open time (kvdb's WAL reset after Compact).
	OpOpenTrunc OpKind = "open-trunc"
)

// Op is one recorded mutating operation.
type Op struct {
	// Kind classifies the operation.
	Kind OpKind `json:"kind"`
	// Path is the target file (base name is enough to identify the
	// fault point in reports; full path aids debugging).
	Path string `json:"path"`
	// Bytes is the payload size for OpWrite, 0 otherwise.
	Bytes int `json:"bytes,omitempty"`
}

// Mode selects what happens when the scripted step is reached.
type Mode string

const (
	// ModeNone never fires — the recording run.
	ModeNone Mode = ""
	// CrashBefore loses power before the operation takes effect.
	CrashBefore Mode = "crash-before"
	// CrashAfter loses power after the operation fully took effect but
	// before its result reached the caller (covers crash-after-rename:
	// the new name is published, the caller never learns it).
	CrashAfter Mode = "crash-after"
	// Torn applies a strict prefix of a write (seed-chosen length) and
	// loses power — the torn-tail case. On non-write operations it
	// degrades to CrashBefore.
	Torn Mode = "torn"
	// ErrIO fails the operation with ErrInjected (EIO) without
	// performing it; the process keeps running.
	ErrIO Mode = "err-io"
	// ENOSPC applies a prefix of a write, then fails with ENOSPC; the
	// process keeps running. On non-write operations it degrades to a
	// no-op ENOSPC failure.
	ENOSPC Mode = "enospc"
)

// Modes returns the fault modes worth enumerating for an operation
// kind. Every returned mode produces a distinct end state or error
// path for that operation.
func Modes(kind OpKind) []Mode {
	switch kind {
	case OpWrite:
		return []Mode{CrashBefore, Torn, CrashAfter, ErrIO, ENOSPC}
	case OpSync:
		return []Mode{CrashBefore, CrashAfter, ErrIO}
	case OpRename, OpRemove, OpOpenTrunc:
		return []Mode{CrashBefore, CrashAfter, ErrIO}
	case OpTruncate:
		return []Mode{CrashBefore, CrashAfter, ErrIO}
	default:
		return nil
	}
}

// Plan scripts one fault point: when the Step-th mutating operation
// (1-based) is issued, Mode happens. Step 0 (or ModeNone) records
// without injecting. Seed drives every deterministic choice (torn
// prefix lengths); the same Plan over the same workload yields the
// same end state.
type Plan struct {
	Step int
	Mode Mode
	Seed int64
}

// Injector is an FS that counts mutating operations, records their
// trace, and fires the scripted fault. Safe for concurrent use (kvdb
// writers lead WAL batches from their own goroutines).
type Injector struct {
	inner FS
	plan  Plan

	mu      sync.Mutex
	step    int
	trace   []Op
	crashed bool
	fired   bool
}

// NewInjector wraps inner (usually fault.OS) with the scripted plan.
func NewInjector(inner FS, plan Plan) *Injector {
	return &Injector{inner: Or(inner), plan: plan}
}

// Trace returns a copy of the mutating-operation trace so far.
func (in *Injector) Trace() []Op {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Op(nil), in.trace...)
}

// Crashed reports whether the simulated machine has lost power.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Fired reports whether the scripted fault point was reached.
func (in *Injector) Fired() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// tornLen deterministically picks a strict-prefix length in [0, n) for
// the write at the given step.
func tornLen(seed int64, step, n int) int {
	if n <= 1 {
		return 0
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(step))
	d := cryptoutil.Digest(buf[:])
	return int(binary.LittleEndian.Uint64(d[:8]) % uint64(n))
}

// outcome is the injector's verdict on one mutating operation.
type outcome struct {
	// perform: carry out the real operation.
	perform bool
	// tornN: for writes, perform only the first tornN bytes (valid when
	// torn is true).
	torn  bool
	tornN int
	// err to return to the caller (nil = the real operation's result).
	err error
}

// arrive counts one mutating operation and decides its fate.
func (in *Injector) arrive(kind OpKind, path string, n int) outcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return outcome{err: ErrCrashed}
	}
	in.step++
	in.trace = append(in.trace, Op{Kind: kind, Path: path, Bytes: n})
	if in.plan.Mode == ModeNone || in.step != in.plan.Step {
		return outcome{perform: true}
	}
	in.fired = true
	mode := in.plan.Mode
	if kind != OpWrite && mode == Torn {
		mode = CrashBefore
	}
	switch mode {
	case CrashBefore:
		in.crashed = true
		return outcome{err: ErrCrashed}
	case CrashAfter:
		in.crashed = true
		return outcome{perform: true, err: ErrCrashed}
	case Torn:
		in.crashed = true
		return outcome{perform: true, torn: true, tornN: tornLen(in.plan.Seed, in.step, n), err: ErrCrashed}
	case ErrIO:
		return outcome{err: fmt.Errorf("%w: %s %s: %w", ErrInjected, kind, path, syscall.EIO)}
	case ENOSPC:
		if kind == OpWrite {
			return outcome{perform: true, torn: true, tornN: tornLen(in.plan.Seed, in.step, n),
				err: fmt.Errorf("%w: %s %s: %w", ErrInjected, kind, path, syscall.ENOSPC)}
		}
		return outcome{err: fmt.Errorf("%w: %s %s: %w", ErrInjected, kind, path, syscall.ENOSPC)}
	default:
		return outcome{perform: true}
	}
}

// guardRead fails reads on a crashed machine (counts nothing).
func (in *Injector) guardRead() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrashed
	}
	return nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_TRUNC != 0 {
		o := in.arrive(OpOpenTrunc, name, 0)
		if o.err != nil && !o.perform {
			return nil, o.err
		}
		f, err := in.inner.OpenFile(name, flag, perm)
		if o.err != nil {
			if err == nil {
				f.Close()
			}
			return nil, o.err
		}
		if err != nil {
			return nil, err
		}
		return &injectFile{in: in, f: f, name: name}, nil
	}
	if err := in.guardRead(); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{in: in, f: f, name: name}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if err := in.guardRead(); err != nil {
		return nil, err
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injectFile{in: in, f: f, name: name}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err := in.guardRead(); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	o := in.arrive(OpRename, newpath, 0)
	if !o.perform {
		return o.err
	}
	if err := in.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	return o.err
}

func (in *Injector) Remove(name string) error {
	o := in.arrive(OpRemove, name, 0)
	if !o.perform {
		return o.err
	}
	if err := in.inner.Remove(name); err != nil {
		return err
	}
	return o.err
}

func (in *Injector) Truncate(name string, size int64) error {
	o := in.arrive(OpTruncate, name, 0)
	if !o.perform {
		return o.err
	}
	if err := in.inner.Truncate(name, size); err != nil {
		return err
	}
	return o.err
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err := in.guardRead(); err != nil {
		return err
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if err := in.guardRead(); err != nil {
		return nil, err
	}
	return in.inner.ReadDir(name)
}

// injectFile threads Write/Sync through the injector's step counter.
type injectFile struct {
	in   *Injector
	f    File
	name string
}

func (f *injectFile) Write(p []byte) (int, error) {
	o := f.in.arrive(OpWrite, f.name, len(p))
	if !o.perform {
		return 0, o.err
	}
	if o.torn {
		n, err := f.f.Write(p[:o.tornN])
		if err != nil {
			return n, err
		}
		return n, o.err
	}
	n, err := f.f.Write(p)
	if err != nil {
		return n, err
	}
	return n, o.err
}

func (f *injectFile) Sync() error {
	o := f.in.arrive(OpSync, f.name, 0)
	if !o.perform {
		return o.err
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	return o.err
}

func (f *injectFile) Close() error {
	// Close is not a fault point: a crashed machine's handles are gone
	// anyway, and closing the real file keeps the harness leak-free.
	return f.f.Close()
}
