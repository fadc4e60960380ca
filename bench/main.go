// Command bench is the repository's benchmark: four wall-clock workloads
// over the secret-fetch, attest and replicated-write paths of real
// in-process deployments, with the layers measured from outside. See
// README.md for the workloads, the metrics and how to read them.
//
//	bash bench/run.sh -seed 1                       all four workloads
//	bash bench/run.sh -workload fetch -trace 0      one workload, end-to-end only
//	bash bench/run.sh -compare a.json b.json        A/A or before/after verdicts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// The run protocol's fixed values.
const (
	warmup       = 2 * time.Second
	timedSetups  = 5
	maxClients   = 4
	fsyncSamples = 64
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// fingerprint records what a result depends on besides the code.
type fingerprint struct {
	Seed         uint64  `json:"seed"`
	Seconds      int     `json:"seconds"`
	Clients      int     `json:"clients"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Filesystem   string  `json:"filesystem"`
	FsyncProbeUs float64 `json:"kvdb.fsync_probe_us"`
	Config       string  `json:"config"`
}

// report is bench/out/result.json.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workloads   []*result   `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "seed for policy names, secret values, key choice and op-kind sequence")
	workload := fs.String("workload", "", "run one workload and print its result as the last line (default: all four)")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 1, "1: also make the traced run and report the per-layer metrics; 0: end-to-end metrics only")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, and there are no positional arguments")
		return 2
	}
	todo := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{sp}
	}

	out, err := outDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dataDir := filepath.Join(out, "data")
	// The data directory is deleted at the start and at the end of a run.
	if err := os.RemoveAll(dataDir); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)
	if err := os.MkdirAll(dataDir, 0o700); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	cfg := runConfig{
		seed:    *seed,
		clients: min(runtime.NumCPU(), maxClients),
		window:  time.Duration(*seconds) * time.Second,
		warmup:  warmup,
		setups:  timedSetups,
		dataDir: dataDir,
	}
	rep := report{Fingerprint: takeFingerprint(cfg)}
	fmt.Fprintf(stdout, "fingerprint: %+v\n", rep.Fingerprint)

	code := 0
	for _, sp := range todo {
		r := runWorkload(context.Background(), sp, cfg, *trace == 1, filepath.Join(out, "trace-"+sp.name+".jsonl"))
		rep.Workloads = append(rep.Workloads, r)
		printResult(stdout, r)
		if !r.Correct || r.Failed != 0 {
			code = 1
		}
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "result.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: write result:", err)
		code = 1
	}
	if *workload != "" {
		// The driver's contract: the last line is one JSON object, carrying
		// the end-to-end metrics with -trace 0 and the per-layer ones with 1.
		r := rep.Workloads[0]
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, max(r.Attempted, 1), r.Failed, r.EndToEnd}
		if *trace == 1 {
			line.Metrics = r.PerLayer
		}
		raw, _ := json.Marshal(line) // plain data, cannot fail
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	return code
}

// outDir is bench/out, found from the checkout root (how run.sh starts the
// binary) or from the bench directory itself (go run, go test).
func outDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "layers.go")); err == nil {
			out := filepath.Join(dir, "out")
			return out, os.MkdirAll(out, 0o755)
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/: bench/layers.go not found")
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, r.EndToEnd[d.name].Value, d.unit)
	}
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, r.PerLayer[d.name].Value, d.unit)
	}
	for _, line := range r.Decomposition {
		fmt.Fprintf(w, "  %s\n", line)
	}
}

func takeFingerprint(cfg runConfig) fingerprint {
	fp := fingerprint{
		Seed:       cfg.seed,
		Seconds:    int(cfg.window / time.Second),
		Clients:    cfg.clients,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Filesystem: filesystemType(cfg.dataDir),
		Config:     "observability on, audit default, logs discarded, per-record fsync, no admission limits, policy cache on, wall clock, loopback, counter interval 0, board without delay",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	fp.FsyncProbeUs = fsyncProbe(cfg.dataDir)
	return fp
}

// filesystemType names the filesystem under dir by its statfs magic.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncProbe is the median cost, in microseconds, of appending 4 KiB to a
// file in the data directory and syncing it: what this sandbox charges for
// the durability every write workload pays.
func fsyncProbe(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	us := make([]float64, 0, fsyncSamples)
	for i := 0; i < fsyncSamples; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(us)
	return median(us)
}
