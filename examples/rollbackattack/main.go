// rollbackattack demonstrates the two rollback defences of §III-D/§IV-D at
// the lowest level, without the facade:
//
//  1. an application's encrypted volume is rolled back to an old image and
//     the runtime detects it against the expected tag held by PALÆMON;
//  2. PALÆMON's own database is rolled back to an old (internally
//     consistent!) state and the Fig 6 monotonic-counter protocol refuses
//     the restart — including after a crash, which the paper treats as an
//     attack; and
//  3. a second instance started with the same identity is detected through
//     the same counter.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"palaemon/internal/ca"
	"palaemon/internal/core"
	"palaemon/internal/fspf"
	"palaemon/internal/kvdb"
	"palaemon/internal/policy"
	"palaemon/internal/runtime"
	"palaemon/internal/sgx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rollbackattack:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	base, err := os.MkdirTemp("", "palaemon-rollback")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	dataDir := filepath.Join(base, "tms")

	model := sgx.DefaultCostModel()
	model.CounterInterval = 0 // demo speed; the protocol is interval-free
	platform, err := sgx.NewPlatform(sgx.Options{Model: model})
	if err != nil {
		return err
	}

	// --- Scene 1: application volume rollback ---------------------------
	inst, err := core.Open(core.Options{Platform: platform, DataDir: dataDir})
	if err != nil {
		return err
	}
	bin := sgx.Binary{Name: "ledger", Code: []byte("ledger-app v1")}
	pol := &policy.Policy{
		Name: "ledger",
		Services: []policy.Service{{
			Name:       "ledger",
			MREnclaves: []sgx.Measurement{bin.Measure()},
		}},
	}
	if err := inst.CreatePolicy(ctx, core.ClientID{1}, pol); err != nil {
		return err
	}
	// The runtime reaches the instance only over its attested TLS endpoint.
	authority, err := ca.New(platform, ca.Config{TrustedMREs: []sgx.Measurement{inst.MRE()}, CertValidity: time.Hour})
	if err != nil {
		return err
	}
	defer authority.Close()
	server, err := core.Serve(inst, core.ServerOptions{Authority: authority})
	if err != nil {
		return err
	}
	tms := core.NewClient(core.ClientOptions{BaseURL: server.URL(), Roots: authority.Root().Pool()})

	app, err := runtime.Start(ctx, runtime.Options{
		Platform: platform, Binary: bin,
		PolicyName: "ledger", ServiceName: "ledger",
		TMS: tms, Mode: runtime.ModeHW,
	})
	if err != nil {
		return err
	}
	if err := app.WriteFile("/ledger", []byte("balance=100")); err != nil {
		return err
	}
	oldImage, err := app.Image() // attacker snapshots untrusted storage here
	if err != nil {
		return err
	}
	if err := app.WriteFile("/ledger", []byte("balance=10")); err != nil {
		return err
	}
	newImage, err := app.Image()
	if err != nil {
		return err
	}
	if err := app.Exit(ctx); err != nil {
		return err
	}
	fmt.Println("scene 1: ledger paid out 90; attacker restores the old volume image")
	_, err = runtime.Start(ctx, runtime.Options{
		Platform: platform, Binary: bin,
		PolicyName: "ledger", ServiceName: "ledger",
		TMS: tms, Mode: runtime.ModeHW, Image: oldImage,
	})
	if !errors.Is(err, fspf.ErrTagMismatch) {
		return fmt.Errorf("volume rollback not detected: %v", err)
	}
	fmt.Println("         detected:", err)
	honest, err := runtime.Start(ctx, runtime.Options{
		Platform: platform, Binary: bin,
		PolicyName: "ledger", ServiceName: "ledger",
		TMS: tms, Mode: runtime.ModeHW, Image: newImage,
	})
	if err != nil {
		return fmt.Errorf("honest restart refused: %w", err)
	}
	if err := honest.Exit(ctx); err != nil {
		return err
	}
	fmt.Println("         honest image restarts fine")

	// --- Scene 2: TMS database rollback ---------------------------------
	// Shut down cleanly (v = c) and snapshot the on-disk DB: a perfectly
	// consistent state an attacker could serve later.
	if err := server.Close(); err != nil {
		return err
	}
	if err := inst.Shutdown(ctx); err != nil {
		return err
	}
	snapshot := filepath.Join(base, "stolen-db")
	if err := copyDB(platform, dataDir, snapshot); err != nil {
		return err
	}
	// One more full epoch moves the hardware counter ahead.
	inst2, err := core.Open(core.Options{Platform: platform, DataDir: dataDir})
	if err != nil {
		return err
	}
	if err := inst2.Shutdown(ctx); err != nil {
		return err
	}
	if err := kvdb.RestoreFrom(dataDir, snapshot); err != nil {
		return err
	}
	fmt.Println("scene 2: attacker restores the TMS database from the old snapshot")
	_, err = core.Open(core.Options{Platform: platform, DataDir: dataDir})
	if !errors.Is(err, core.ErrCounterMismatch) {
		return fmt.Errorf("database rollback not detected: %v", err)
	}
	fmt.Println("         detected:", err)

	// Operator-acknowledged fail-over (v < c) is the only way forward.
	inst3, err := core.Open(core.Options{Platform: platform, DataDir: dataDir, Recover: true})
	if err != nil {
		return err
	}
	fmt.Println("         explicit operator recovery accepted (fail-over path)")

	// --- Scene 3: second instance with the same identity ----------------
	fmt.Println("scene 3: provider starts a second instance with the same identity")
	_, err = core.Open(core.Options{Platform: platform, DataDir: dataDir})
	if !errors.Is(err, core.ErrCounterMismatch) && !errors.Is(err, core.ErrSecondInstance) {
		return fmt.Errorf("second instance not detected: %v", err)
	}
	fmt.Println("         detected:", err)
	return inst3.Shutdown(ctx)
}

// copyDB snapshots the instance's on-disk database the way an attacker with
// storage access would (raw bytes; the key never leaves the enclave).
func copyDB(platform *sgx.Platform, dir, dst string) error {
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	for _, name := range []string{"snapshot.db", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o600); err != nil {
			return err
		}
	}
	return nil
}
