package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"palaemon/internal/chaos"
	"palaemon/internal/figures"
)

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %s: %v\n%s", path, err, raw)
	}
}

// TestSubcommandRequired: a missing or unknown subcommand fails and
// names the three valid ones.
func TestSubcommandRequired(t *testing.T) {
	for _, args := range [][]string{nil, {"bench"}, {"-json", "x.json"}} {
		err := run(args)
		if err == nil {
			t.Fatalf("run(%q) succeeded", args)
		}
		for _, name := range []string{"figures", "chaos", "fleet"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("run(%q) = %q, does not name %s", args, err, name)
			}
		}
	}
}

// TestFiguresSelectionErrors: a selection naming no experiment or an
// unknown one fails before anything runs, and writes no JSON.
func TestFiguresSelectionErrors(t *testing.T) {
	for _, tc := range []struct{ exp, want string }{
		{",", "no experiments selected"},
		{" , ,", "no experiments selected"},
		{"table1,nope", `unknown experiment "nope"`},
	} {
		path := filepath.Join(t.TempDir(), "figures.json")
		err := run([]string{"figures", "-exp", tc.exp, "-json", path})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-exp %q: error %v, want %q", tc.exp, err, tc.want)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("-exp %q wrote %s", tc.exp, path)
		}
	}
}

// TestFiguresJSON: the JSON document is the array of reports run, and a
// repeated ID runs once.
func TestFiguresJSON(t *testing.T) {
	for _, exp := range []string{"table1", "table1,table1"} {
		path := filepath.Join(t.TempDir(), "figures.json")
		if err := run([]string{"figures", "-exp", exp, "-json", path}); err != nil {
			t.Fatalf("-exp %s: %v", exp, err)
		}
		var reports []figures.Report
		readJSON(t, path, &reports)
		if len(reports) != 1 || reports[0].ID != "table1" {
			t.Fatalf("-exp %s wrote %d report(s): %+v", exp, len(reports), reports)
		}
	}
}

// TestChaosJSON: the sweep's summary document reports every case and no
// violation.
func TestChaosJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault sweep")
	}
	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := run([]string{"chaos", "-json", path}); err != nil {
		t.Fatal(err)
	}
	var sum chaos.Summary
	readJSON(t, path, &sum)
	if sum.Violations != 0 || sum.Cases < 151 {
		t.Fatalf("summary: %d cases, %d violations; want >= 151 cases, 0 violations", sum.Cases, sum.Violations)
	}
}
