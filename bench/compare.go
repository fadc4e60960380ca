package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// endToEndDef is an end-to-end metric with the share of the first run's
// value by which the second may be worse before it counts as a regression.
type endToEndDef struct {
	name, unit string
	higherGood bool
	bound      float64
}

// endToEndMetrics are the seven metrics every workload reports from its
// untraced window. TestBenchmarkJSONMatches keeps BENCHMARK.json equal.
var endToEndMetrics = []endToEndDef{
	{"ops_per_s", "1/s", true, 0.10},
	{"latency_p50_ms", "ms", false, 0.15},
	{"latency_p95_ms", "ms", false, 0.20},
	{"allocs_per_op", "count", false, 0.02},
	{"alloc_kb_per_op", "KB", false, 0.03},
	{"heap_live_mb", "MB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// their relative difference, the bound and a verdict, and returns 1 if any
// metric of b is worse than a's by more than its bound.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	if fa.NProc != fb.NProc || fa.Clients != fb.Clients || fa.Seed != fb.Seed || fa.Filesystem != fb.Filesystem || fa.Seconds != fb.Seconds {
		fmt.Fprintf(stderr, "bench: results are not comparable: nproc %d/%d, clients %d/%d, seed %d/%d, filesystem %s/%s, seconds %d/%d\n",
			fa.NProc, fb.NProc, fa.Clients, fb.Clients, fa.Seed, fb.Seed, fa.Filesystem, fb.Filesystem, fa.Seconds, fb.Seconds)
		return 2
	}
	code := 0
	for _, ra := range a.Workloads {
		var rb *result
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(stderr, "bench: %s has no workload %s\n", pathB, ra.Workload)
			return 2
		}
		fmt.Fprintf(stdout, "== %s\n", ra.Workload)
		for _, d := range endToEndMetrics {
			va, vb := ra.EndToEnd[d.name].Value, rb.EndToEnd[d.name].Value
			verdict := verdictOf(d, va, vb)
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-18s %14.4f %14.4f %-6s %+7.2f%%  bound %4.1f%%  %s\n", d.name, va, vb, d.unit, 100*(vb-va)/va, 100*d.bound, verdict)
		}
	}
	return code
}

// verdictOf judges b against a: beyond the bound in the bad direction is
// worse, beyond it in the good direction is better, within it is the same.
func verdictOf(d endToEndDef, a, b float64) string {
	change := (b - a) / a
	if d.higherGood {
		change = -change
	}
	switch {
	case change > d.bound:
		return "worse"
	case change < -d.bound:
		return "better"
	}
	return "same"
}
