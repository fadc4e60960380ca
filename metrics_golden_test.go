package palaemon_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"palaemon"
	"palaemon/internal/fleet"
	"palaemon/internal/obs"
)

// The golden file pins the metric family names and types a scrape shows:
// dashboards and bench/ (palaemon_request_seconds_{sum,count},
// palaemon_request_errors_total) read them by name, so a rename has to
// fail here, not in a benchmark run. Regenerate deliberately with
//
//	go test . -run TestMetricFamiliesGolden -update
var updateMetricGolden = flag.Bool("update", false, "rewrite the metric-family golden file")

var metricGoldenPath = filepath.Join("internal", "wire", "testdata", "metric_families.golden")

// metricFamilies lists "name type" for every family of one scrape.
func metricFamilies(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var scrape, out strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out.WriteString(fam + "\n")
		}
	}
	return out.String()
}

func TestMetricFamiliesGolden(t *testing.T) {
	ctx := context.Background()
	pol := &palaemon.Policy{
		Name: "golden",
		Services: []palaemon.Service{{
			Name:       "svc",
			Command:    "svc",
			MREnclaves: []palaemon.Measurement{palaemon.MeasureBinary(palaemon.Binary{Name: "svc", Code: []byte("v1")})},
		}},
	}

	dep, err := palaemon.StartService(palaemon.DeploymentOptions{DataDir: t.TempDir(), Observability: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client, _, err := dep.Connect(palaemon.ConnectOptions{Name: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CreatePolicy(ctx, pol); err != nil {
		t.Fatal(err)
	}
	got := "[standalone]\n" + metricFamilies(t, dep.Obs.Metrics)

	f, err := fleet.New(fleet.Options{Shards: 2, DataDir: t.TempDir(), Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	routed, err := f.NewStakeholderClient("golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := routed.CreatePolicy(ctx, pol); err != nil {
		t.Fatal(err)
	}
	got += "[fleet shard]\n" + metricFamilies(t, f.Observability(f.Ring().Owner(pol.Name)).Metrics)

	if *updateMetricGolden {
		if err := os.WriteFile(metricGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metric families changed (a rename breaks bench/ and dashboards; if deliberate, rerun with -update)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
