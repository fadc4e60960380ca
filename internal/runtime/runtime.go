// Package runtime is the SCONE-like application runtime shim (§IV-A): it
// loads an application "inside" a TEE, attests it against PALÆMON before
// handing over control, mounts the encrypted file-system shield with the
// released key, injects secrets into configuration files transparently, and
// pushes the expected file-system tag to PALÆMON on every close, sync and
// exit so rollbacks are detectable (§III-D).
//
// Three execution modes mirror the evaluation:
//
//   - ModeNative  — no TEE, no shield: the baseline in every figure.
//   - ModeEMU     — the shield runs (real crypto) but no SGX cost model.
//   - ModeHW      — the shield runs inside a simulated enclave; syscall
//     shielding and EPC effects are charged per the cost model.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"palaemon/internal/attest"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
)

// Mode selects the execution environment.
type Mode int

// Execution modes.
const (
	// ModeNative runs without any TEE or shield.
	ModeNative Mode = iota + 1
	// ModeEMU runs the shield in emulation (no SGX cost charging).
	ModeEMU
	// ModeHW runs inside the simulated enclave with full cost charging.
	ModeHW
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "Native"
	case ModeEMU:
		return "EMU"
	case ModeHW:
		return "HW"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors.
var (
	ErrNotStarted = errors.New("runtime: application not started")
	ErrExited     = errors.New("runtime: application already exited")
)

// Options configures an App.
type Options struct {
	// Platform hosts the enclave (required for ModeEMU/ModeHW).
	Platform *sgx.Platform
	// Binary is the application binary; its MRE must be permitted by the
	// policy.
	Binary sgx.Binary
	// PolicyName and ServiceName select the PALÆMON policy entry.
	PolicyName  string
	ServiceName string
	// TMS is the HTTPS client to PALÆMON: attestation, tag pushes and the
	// exit notification all cross its attested TLS connection (§IV-A).
	TMS *core.Client
	// Mode selects Native/EMU/HW.
	Mode Mode
	// HeapBytes sizes the enclave heap (HW mode).
	HeapBytes int64
	// Image, when non-nil, supplies the marshalled encrypted volume from
	// untrusted storage (a restart); nil starts with a fresh volume.
	Image []byte
}

// App is one shielded application execution.
type App struct {
	opts    Options
	clock   simclock.Clock
	enclave *sgx.Enclave
	session *cryptoutil.Signer

	mu      sync.Mutex
	cfg     *core.AppConfig
	volume  *fspf.Volume
	started bool
	exited  bool
	// pushErr records the first failed tag push for surfacing at exit.
	pushErr error
	// pushes counts tag pushes (tests and ablations).
	pushes int
}

// Start attests the application and mounts its shielded file system. This is
// the §IV-A startup sequence: enclave launch, ephemeral key, quote, TLS to
// PALÆMON, configuration release, volume open, secret injection.
func Start(ctx context.Context, opts Options) (*App, error) {
	if opts.TMS == nil {
		return nil, errors.New("runtime: TMS endpoint is required")
	}
	if opts.Mode == 0 {
		opts.Mode = ModeHW
	}
	if opts.Mode != ModeNative && opts.Platform == nil {
		return nil, errors.New("runtime: platform required for shielded modes")
	}
	var clock simclock.Clock = simclock.Wall{}
	if opts.Platform != nil {
		clock = opts.Platform.Clock()
	}
	app := &App{opts: opts, clock: clock}

	// Launch the enclave (EMU launches too — attestation needs a quote —
	// but charges no exit costs).
	if opts.Mode != ModeNative {
		enclave, err := opts.Platform.Launch(opts.Binary, sgx.LaunchOptions{
			HeapBytes:   opts.HeapBytes,
			AllowPaging: true,
		})
		if err != nil {
			return nil, fmt.Errorf("runtime: launch: %w", err)
		}
		app.enclave = enclave
	}

	// Ephemeral session key pair; its hash is bound into the quote.
	session, err := cryptoutil.NewSigner()
	if err != nil {
		app.destroy()
		return nil, err
	}
	app.session = session

	if opts.Mode == ModeNative {
		// Native applications do not attest; they run without secrets or
		// shield (the paper's baseline).
		app.volume = nil
		app.started = true
		return app, nil
	}

	ev := attest.NewEvidence(app.enclave, opts.PolicyName, opts.ServiceName, session.Public)
	cfg, err := opts.TMS.Attest(ctx, ev, opts.Platform.QuotingKey(), nil)
	if err != nil {
		app.destroy()
		return nil, fmt.Errorf("runtime: attestation: %w", err)
	}
	app.cfg = cfg

	// Mount the shield: fresh volume or reopen against the expected tag.
	var vol *fspf.Volume
	if opts.Image == nil {
		vol = fspf.CreateVolume(cfg.FSPFKey)
		if !cfg.ExpectedTag.IsZero() {
			// PALÆMON expects state but untrusted storage offers none:
			// that is a rollback to "before first write".
			app.destroy()
			return nil, fmt.Errorf("runtime: %w", fspf.ErrTagMismatch)
		}
	} else {
		vol, err = fspf.OpenVolume(cfg.FSPFKey, opts.Image, cfg.ExpectedTag)
		if err != nil {
			app.destroy()
			return nil, fmt.Errorf("runtime: open volume: %w", err)
		}
	}
	app.volume = vol

	// Inject configuration files: content is substituted inside the TEE
	// and kept in enclave memory (§IV-A) — here: written into the shield.
	for path, content := range cfg.InjectionFiles {
		if err := vol.WriteFile(path, []byte(content)); err != nil {
			app.destroy()
			return nil, fmt.Errorf("runtime: inject %s: %w", path, err)
		}
	}

	// Every tag change is pushed to PALÆMON over the standing attested
	// connection (§III-D: close, sync, exit). The hook outlives Start, so
	// it must not die with Start's context: a push lost to a cancelled
	// ctx would leave PALÆMON expecting an old tag, and the next honest
	// restart would look like a rollback.
	pushCtx := context.WithoutCancel(ctx)
	vol.OnTagChange(func(tag fspf.Tag) {
		app.mu.Lock()
		app.pushes++
		app.mu.Unlock()
		if err := opts.TMS.PushTag(pushCtx, cfg.SessionToken, tag, nil); err != nil {
			app.mu.Lock()
			if app.pushErr == nil {
				app.pushErr = err
			}
			app.mu.Unlock()
		}
	})
	// Push the post-injection tag once so PALÆMON's expectation covers the
	// injected configuration even if the application never writes.
	vol.Sync()

	app.charge(4) // attestation handshake syscalls
	app.started = true
	return app, nil
}

// charge applies the syscall-shield cost model in HW mode.
func (a *App) charge(syscalls int) {
	if a.opts.Mode != ModeHW || a.enclave == nil {
		return
	}
	a.clock.Sleep(a.enclave.ChargeSyscalls(syscalls))
}

// Config returns the released configuration (nil in native mode).
func (a *App) Config() *core.AppConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg
}

// Args returns the substituted command line split on spaces.
func (a *App) Args() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg == nil || a.cfg.Command == "" {
		return nil
	}
	return strings.Fields(a.cfg.Command)
}

// Env returns the substituted environment.
func (a *App) Env() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg == nil {
		return nil
	}
	out := make(map[string]string, len(a.cfg.Environment))
	for k, v := range a.cfg.Environment {
		out[k] = v
	}
	return out
}

// Enclave exposes the enclave (nil in native mode).
func (a *App) Enclave() *sgx.Enclave { return a.enclave }

// WriteFile writes through the shield (tag push fires).
func (a *App) WriteFile(path string, data []byte) error {
	if err := a.ensureShield(); err != nil {
		return err
	}
	a.charge(2) // open + write/close
	return a.volume.WriteFile(path, data)
}

// ReadFile reads through the shield. Variables in injected configuration
// files were substituted at startup; regular files come back verbatim.
func (a *App) ReadFile(path string) ([]byte, error) {
	if err := a.ensureShield(); err != nil {
		return nil, err
	}
	a.charge(2)
	return a.volume.ReadFile(path)
}

// ReadFileWithSecrets reads a file and substitutes $$NAME variables with the
// policy's secrets at read time — the transparent injection path for files
// written by the application itself.
func (a *App) ReadFileWithSecrets(path string) ([]byte, error) {
	raw, err := a.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	secrets := a.cfg.Secrets
	a.mu.Unlock()
	return []byte(substitute(string(raw), secrets)), nil
}

// Open returns a shielded file handle (close/sync push tags).
func (a *App) Open(path string) (*fspf.Handle, error) {
	if err := a.ensureShield(); err != nil {
		return nil, err
	}
	a.charge(1)
	return a.volume.Open(path)
}

// Remove deletes a file (tag push fires).
func (a *App) Remove(path string) error {
	if err := a.ensureShield(); err != nil {
		return err
	}
	a.charge(1)
	return a.volume.Remove(path)
}

// Sync flushes the volume and pushes the current tag (fsync path).
func (a *App) Sync() error {
	if err := a.ensureShield(); err != nil {
		return err
	}
	a.charge(1)
	a.volume.Sync()
	return a.firstPushErr()
}

// Tag returns the current volume tag.
func (a *App) Tag() (fspf.Tag, error) {
	if err := a.ensureShield(); err != nil {
		return fspf.Tag{}, err
	}
	return a.volume.Tag(), nil
}

// Image marshals the encrypted volume for untrusted storage; the caller
// persists it and hands it back via Options.Image on restart.
func (a *App) Image() ([]byte, error) {
	if err := a.ensureShield(); err != nil {
		return nil, err
	}
	a.charge(2)
	return a.volume.Marshal()
}

// Pushes reports how many tag pushes this execution performed.
func (a *App) Pushes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pushes
}

// Exit flushes, notifies PALÆMON of the clean exit with the final tag, and
// tears the enclave down. Strict-mode services can only restart after this
// succeeds (§III-D).
func (a *App) Exit(ctx context.Context) error {
	a.mu.Lock()
	if !a.started {
		a.mu.Unlock()
		return ErrNotStarted
	}
	if a.exited {
		a.mu.Unlock()
		return ErrExited
	}
	a.exited = true
	cfg := a.cfg
	vol := a.volume
	a.mu.Unlock()

	defer a.destroy()
	if cfg == nil || vol == nil {
		return nil // native mode
	}
	if err := a.opts.TMS.NotifyExit(ctx, cfg.SessionToken, vol.Tag()); err != nil {
		return fmt.Errorf("runtime: exit notification: %w", err)
	}
	return a.firstPushErr()
}

// Abort simulates a crash: the enclave disappears without the exit
// notification. Strict-mode policies then refuse the next start.
func (a *App) Abort() {
	a.mu.Lock()
	a.exited = true
	a.mu.Unlock()
	a.destroy()
}

func (a *App) destroy() {
	if a.enclave != nil {
		a.enclave.Destroy()
		a.enclave = nil
	}
}

func (a *App) ensureShield() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started {
		return ErrNotStarted
	}
	if a.exited {
		return ErrExited
	}
	if a.volume == nil {
		return errors.New("runtime: native mode has no shielded volume")
	}
	return nil
}

func (a *App) firstPushErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pushErr
}

// substitute mirrors policy.Substitute without importing it (avoids a
// dependency cycle risk and keeps the runtime self-contained).
func substitute(s string, secrets map[string]string) string {
	if !strings.Contains(s, "$$") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if i+1 < len(s) && s[i] == '$' && s[i+1] == '$' {
			j := i + 2
			for j < len(s) && isVarChar(s[j]) {
				j++
			}
			name := s[i+2 : j]
			if v, ok := secrets[name]; ok && name != "" {
				b.WriteString(v)
				i = j
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

func isVarChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
