package palaemon_test

import (
	"context"
	"testing"

	"palaemon"
	"palaemon/internal/runtime"
)

// TestRuntimeOverHTTPS runs the full production wiring: the SCONE-like
// runtime attests and pushes tags through a certificate-bearing REST/TLS
// client that also drives policy CRUD, so every byte of the §IV-A protocol
// crosses a real TLS connection.
func TestRuntimeOverHTTPS(t *testing.T) {
	ctx := context.Background()
	dep, err := palaemon.StartService(palaemon.DeploymentOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	client, _, err := dep.Connect(palaemon.ConnectOptions{Name: "wire"})
	if err != nil {
		t.Fatal(err)
	}
	bin := palaemon.Binary{Name: "wired-app", Code: []byte("wired binary")}
	pol := &palaemon.Policy{
		Name: "wired",
		Services: []palaemon.Service{{
			Name:        "app",
			MREnclaves:  []palaemon.Measurement{palaemon.MeasureBinary(bin)},
			Environment: map[string]string{"S": "$$s"},
		}},
		Secrets: []palaemon.Secret{{Name: "s", Type: palaemon.SecretExplicit, Value: "wire-secret"}},
	}
	if err := client.CreatePolicy(ctx, pol); err != nil {
		t.Fatal(err)
	}

	// The runtime talks to the instance through the HTTPS client.
	app, err := runtime.Start(ctx, runtime.Options{
		Platform:    dep.Platform,
		Binary:      bin,
		PolicyName:  "wired",
		ServiceName: "app",
		TMS:         client,
		Mode:        runtime.ModeHW,
	})
	if err != nil {
		t.Fatalf("Start over HTTPS: %v", err)
	}
	if app.Env()["S"] != "wire-secret" {
		t.Fatalf("env = %v", app.Env())
	}
	if err := app.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The tag pushed over the wire matches the app's local tag.
	tag, err := app.Tag()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := dep.Instance.ExpectedTag("wired", "app")
	if err != nil || stored != tag {
		t.Fatalf("stored %v, local %v (%v)", stored, tag, err)
	}
	// Clean exit over the wire; restart passes strict checks.
	image, err := app.Image()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Exit(ctx); err != nil {
		t.Fatal(err)
	}
	app2, err := runtime.Start(ctx, runtime.Options{
		Platform:    dep.Platform,
		Binary:      bin,
		PolicyName:  "wired",
		ServiceName: "app",
		TMS:         client,
		Mode:        runtime.ModeHW,
		Image:       image,
	})
	if err != nil {
		t.Fatalf("restart over HTTPS: %v", err)
	}
	data, err := app2.ReadFile("/f")
	if err != nil || string(data) != "x" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if err := app2.Exit(ctx); err != nil {
		t.Fatal(err)
	}
}
