package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"palaemon/internal/ca"
	"palaemon/internal/core"
	"palaemon/internal/fspf"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
)

// env is a test environment: platform, instance served over TLS, a client
// trusting the instance's CA, and a registered policy.
type env struct {
	platform *sgx.Platform
	inst     *core.Instance
	tms      *core.Client
	bin      sgx.Binary
}

func newEnv(t *testing.T, mutate func(*policy.Policy)) *env {
	t.Helper()
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Clock: simclock.NewVirtual(), Model: model})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.Open(core.Options{Platform: p, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Shutdown(context.Background()) })
	auth, err := ca.New(p, ca.Config{TrustedMREs: []sgx.Measurement{inst.MRE()}, CertValidity: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(auth.Close)
	server, err := core.Serve(inst, core.ServerOptions{Authority: auth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() }) // runs before the instance shuts down

	bin := sgx.Binary{Name: "app", Code: []byte("shielded-application")}
	pol := &policy.Policy{
		Name: "runpol",
		Services: []policy.Service{{
			Name:        "app",
			Command:     "app --password $$pw",
			MREnclaves:  []sgx.Measurement{bin.Measure()},
			Environment: map[string]string{"PW": "$$pw"},
			InjectionFiles: []policy.InjectionFile{
				{Path: "/etc/conf", Template: "pw=$$pw"},
			},
		}},
		Secrets: []policy.Secret{{Name: "pw", Type: policy.SecretExplicit, Value: "hunter2"}},
	}
	if mutate != nil {
		mutate(pol)
	}
	if err := inst.CreatePolicy(context.Background(), core.ClientID{1}, pol); err != nil {
		t.Fatal(err)
	}
	tms := core.NewClient(core.ClientOptions{BaseURL: server.URL(), Roots: auth.Root().Pool()})
	return &env{platform: p, inst: inst, tms: tms, bin: bin}
}

func (e *env) start(t *testing.T, opts Options) *App {
	t.Helper()
	opts.Platform = e.platform
	opts.Binary = e.bin
	opts.PolicyName = "runpol"
	opts.ServiceName = "app"
	opts.TMS = e.tms
	if opts.Mode == 0 {
		opts.Mode = ModeHW
	}
	app, err := Start(context.Background(), opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return app
}

func TestStartDeliversConfig(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	defer app.Exit(context.Background())

	args := app.Args()
	if len(args) != 3 || args[2] != "hunter2" {
		t.Fatalf("args = %v", args)
	}
	if app.Env()["PW"] != "hunter2" {
		t.Fatalf("env = %v", app.Env())
	}
	// Injected file readable with the secret substituted.
	data, err := app.ReadFile("/etc/conf")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "pw=hunter2" {
		t.Fatalf("injected = %q", data)
	}
}

func TestTagPushOnWriteSyncExit(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})

	if err := app.WriteFile("/data", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if app.Pushes() < 2 { // injection write + data write
		t.Fatalf("pushes = %d", app.Pushes())
	}
	tag, err := app.Tag()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := e.inst.ExpectedTag("runpol", "app")
	if err != nil || stored != tag {
		t.Fatalf("stored tag %v, app tag %v (%v)", stored, tag, err)
	}
	if err := app.Exit(context.Background()); err != nil {
		t.Fatalf("Exit: %v", err)
	}
}

func TestRestartVerifiesFreshness(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	if err := app.WriteFile("/state", []byte("epoch-1")); err != nil {
		t.Fatal(err)
	}
	img1, err := app.Image()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.WriteFile("/state", []byte("epoch-2")); err != nil {
		t.Fatal(err)
	}
	img2, err := app.Image()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Exit(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Honest restart with the current image succeeds.
	app2 := e.start(t, Options{Image: img2})
	data, err := app2.ReadFile("/state")
	if err != nil || string(data) != "epoch-2" {
		t.Fatalf("restart read = %q, %v", data, err)
	}
	if err := app2.Exit(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Rollback attack: the provider serves the older image.
	_, err = Start(context.Background(), Options{
		Platform: e.platform, Binary: e.bin,
		PolicyName: "runpol", ServiceName: "app",
		TMS: e.tms, Mode: ModeHW, Image: img1,
	})
	if err == nil || !errors.Is(err, fspf.ErrTagMismatch) {
		t.Fatalf("rollback not detected: %v", err)
	}
}

func TestRestartWithMissingImageDetected(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	if err := app.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := app.Exit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Restart with NO image while PALÆMON expects state: refused.
	_, err := Start(context.Background(), Options{
		Platform: e.platform, Binary: e.bin,
		PolicyName: "runpol", ServiceName: "app",
		TMS: e.tms, Mode: ModeHW,
	})
	if err == nil || !errors.Is(err, fspf.ErrTagMismatch) {
		t.Fatalf("missing-image rollback not detected: %v", err)
	}
}

func TestStrictModeAfterCrash(t *testing.T) {
	e := newEnv(t, func(p *policy.Policy) { p.Services[0].StrictMode = true })
	app := e.start(t, Options{})
	if err := app.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	app.Abort() // crash without exit notification

	_, err := Start(context.Background(), Options{
		Platform: e.platform, Binary: e.bin,
		PolicyName: "runpol", ServiceName: "app",
		TMS: e.tms, Mode: ModeHW,
	})
	if err == nil || !errors.Is(err, core.ErrStrictRestart) {
		t.Fatalf("strict restart after crash: %v", err)
	}
}

func TestWrongBinaryRefused(t *testing.T) {
	e := newEnv(t, nil)
	_, err := Start(context.Background(), Options{
		Platform:   e.platform,
		Binary:     sgx.Binary{Name: "evil", Code: []byte("tampered")},
		PolicyName: "runpol", ServiceName: "app",
		TMS: e.tms, Mode: ModeHW,
	})
	if err == nil || !errors.Is(err, core.ErrAttestation) {
		t.Fatalf("tampered binary attested: %v", err)
	}
}

func TestNativeModeSkipsShield(t *testing.T) {
	e := newEnv(t, nil)
	app, err := Start(context.Background(), Options{
		TMS: e.tms, Mode: ModeNative,
	})
	if err != nil {
		t.Fatalf("native start: %v", err)
	}
	if app.Config() != nil {
		t.Fatal("native mode received a config")
	}
	if err := app.WriteFile("/f", nil); err == nil {
		t.Fatal("native mode has a shield?")
	}
	if err := app.Exit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestHWModeChargesSyscalls(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	defer app.Exit(context.Background())
	if err := app.WriteFile("/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if exits, _ := app.Enclave().Stats(); exits == 0 {
		t.Fatal("HW mode recorded no enclave exits")
	}
}

func TestEMUModeChargesNothing(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{Mode: ModeEMU})
	defer app.Exit(context.Background())
	if err := app.WriteFile("/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if exits, _ := app.Enclave().Stats(); exits != 0 {
		t.Fatalf("EMU recorded %d enclave exits", exits)
	}
}

func TestReadFileWithSecrets(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	defer app.Exit(context.Background())
	// The application itself writes a template; reads substitute secrets.
	if err := app.WriteFile("/own.conf", []byte("token=$$pw!")); err != nil {
		t.Fatal(err)
	}
	out, err := app.ReadFileWithSecrets("/own.conf")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "token=hunter2!" {
		t.Fatalf("substituted = %q", out)
	}
	// Raw read stays untouched.
	raw, err := app.ReadFile("/own.conf")
	if err != nil || !strings.Contains(string(raw), "$$pw") {
		t.Fatalf("raw = %q, %v", raw, err)
	}
}

func TestHandleLifecyclePushesOnClose(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	defer app.Exit(context.Background())

	before := app.Pushes()
	h, err := app.Open("/handle-file")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	if app.Pushes() != before {
		t.Fatal("buffered writes pushed tags")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if app.Pushes() != before+1 {
		t.Fatalf("close pushed %d times", app.Pushes()-before)
	}
}

// TestPushesOutliveStartContext pins that the tag-push hook does not
// capture Start's context: after the caller cancels it, writes still push
// and Exit still notifies, so PALÆMON's expected tag follows the volume
// and an honest restart is not mistaken for a rollback.
func TestPushesOutliveStartContext(t *testing.T) {
	e := newEnv(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	app, err := Start(ctx, Options{
		Platform: e.platform, Binary: e.bin,
		PolicyName: "runpol", ServiceName: "app",
		TMS: e.tms, Mode: ModeHW,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := app.WriteFile("/after-cancel", []byte("x")); err != nil {
		t.Fatal(err)
	}
	tag, err := app.Tag()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Exit(context.Background()); err != nil {
		t.Fatalf("Exit after Start's context was cancelled: %v", err)
	}
	stored, err := e.inst.ExpectedTag("runpol", "app")
	if err != nil || stored != tag {
		t.Fatalf("expected tag %v, app tag %v (%v)", stored, tag, err)
	}
}

func TestExitTwice(t *testing.T) {
	e := newEnv(t, nil)
	app := e.start(t, Options{})
	if err := app.Exit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := app.Exit(context.Background()); !errors.Is(err, ErrExited) {
		t.Fatalf("double exit: %v", err)
	}
	if _, err := app.ReadFile("/x"); !errors.Is(err, ErrExited) {
		t.Fatalf("read after exit: %v", err)
	}
}
