// Package figures regenerates every table and figure of the paper's
// evaluation (§V and §VI). Each experiment returns a Report: the same rows
// or series the paper plots, with a paper-reference column where the paper
// states a number, so EXPERIMENTS.md can record paper-vs-measured.
//
// Experiments mix real measurement (crypto, Merkle trees, counters, full
// HTTPS round trips on loopback) with the calibrated hardware model
// (Table II page costs, WAN latency profiles, the 50 ms counter interval) —
// the substitutions are catalogued in DESIGN.md §2.
package figures

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID names the experiment ("table2", "fig9", ...).
	ID string
	// Title is the caption.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data.
	Rows [][]string
	// Notes explain calibration or substitutions.
	Notes []string
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtDur renders durations at figure precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return d.String()
	}
}

// fmtRate renders a requests/second figure.
func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk/s", v/1e3)
	default:
		return fmt.Sprintf("%.1f/s", v)
	}
}

// fmtMBps renders a MB/s figure.
func fmtMBps(v float64) string { return fmt.Sprintf("%.0f MB/s", v) }

// Experiment couples an ID to its generator, for the CLI registry.
type Experiment struct {
	// ID is the selector `palaemonreport figures -exp` takes.
	ID string
	// Title is the caption shown in listings.
	Title string
	// Run regenerates the report. quick reduces durations for CI.
	Run func(quick bool) (*Report, error)
}

// All returns the full experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "How popular services obtain secrets", Run: Table1},
		{ID: "table2", Title: "Enclave page operation throughput", Run: Table2},
		{ID: "fig7", Title: "Enclave startup time vs size", Run: Fig7},
		{ID: "fig8", Title: "Attestation and configuration latencies", Run: Fig8},
		{ID: "fig9", Title: "Startup latency and throughput by attestation variant", Run: Fig9},
		{ID: "fig10", Title: "Monotonic counter throughput", Run: Fig10},
		{ID: "fig11", Title: "Tag latency and secret injection overhead", Run: Fig11},
		{ID: "fig12", Title: "Secret retrieval latency by deployment distance", Run: Fig12},
		{ID: "fig13", Title: "Approval service throughput/latency and geo deployments", Run: Fig13},
		{ID: "fig14", Title: "Barbican KMS variants under two microcodes", Run: Fig14},
		{ID: "fig15", Title: "Vault throughput/latency", Run: Fig15},
		{ID: "fig16", Title: "memcached throughput/latency", Run: Fig16},
		{ID: "fig17a", Title: "NGINX GET 67 kB files", Run: Fig17a},
		{ID: "fig17bc", Title: "ZooKeeper read and write throughput", Run: Fig17bc},
		{ID: "fig17d", Title: "MariaDB TPC-C vs buffer pool size", Run: Fig17d},
		{ID: "usecase", Title: "Production ML inference (§VI)", Run: UseCase},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
