// Command palaemonreport regenerates the repository's report artifacts,
// one subcommand per report:
//
//	palaemonreport figures [-exp fig8,fig12] [-quick] [-list] [-json F]
//	palaemonreport chaos [-seed N] [-json F]
//	palaemonreport fleet [-json F]
//
// figures regenerates the paper's tables and figures (internal/figures):
// every experiment by default, a comma-separated subset with -exp,
// reduced measurement windows with -quick; -list prints the experiment
// IDs. chaos runs the crash-consistency fault-injection sweep
// (internal/chaos) and fails when any (scenario, step, mode) injection
// violated a durability invariant, printing each violation with enough
// detail to replay it: same seed, same workload, same step. fleet runs
// the kill-a-shard failover drill (internal/stress.RunFleetKillShard)
// and fails when an acknowledged write was lost, the promoted replica
// chain-verified nothing, the discovery epoch did not advance, or the
// promoted shard accepts no writes.
//
// Each subcommand prints its report to stdout and, with -json, also
// writes it to a file as JSON — even when the run then fails on a
// violation, so the artifact shows what broke.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"palaemon/internal/chaos"
	"palaemon/internal/figures"
	"palaemon/internal/stress"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "palaemonreport:", err)
		os.Exit(1)
	}
}

const subcommands = "figures, chaos or fleet"

// report runs one subcommand in a scratch directory. A non-nil document
// is written by -json even when err reports a violation.
type report func(scratch string) (doc any, err error)

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand: want %s", subcommands)
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	jsonPath := fs.String("json", "", "also write the report to this file as JSON")
	var rep report
	switch args[0] {
	case "figures":
		rep = figuresReport(fs)
	case "chaos":
		seed := fs.Int64("seed", 1, "seed for deterministic torn-write prefixes")
		rep = func(scratch string) (any, error) { return chaosReport(scratch, *seed) }
	case "fleet":
		rep = fleetReport
	default:
		return fmt.Errorf("unknown subcommand %q: want %s", args[0], subcommands)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("%s: unexpected arguments %q", args[0], fs.Args())
	}

	scratch, err := os.MkdirTemp("", "palaemon-"+args[0])
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	doc, err := rep(scratch)
	if doc != nil && *jsonPath != "" {
		raw, jerr := json.MarshalIndent(doc, "", "  ")
		if jerr != nil {
			return fmt.Errorf("encode report: %w", jerr)
		}
		if werr := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); werr != nil {
			return werr
		}
	}
	return err
}

// figuresReport registers the figures flags on fs and returns the run.
func figuresReport(fs *flag.FlagSet) report {
	expIDs := fs.String("exp", "", "comma-separated experiment IDs to run (default: all)")
	quick := fs.Bool("quick", false, "reduced measurement windows")
	list := fs.Bool("list", false, "list experiments and exit")
	return func(string) (any, error) {
		if *list {
			for _, e := range figures.All() {
				fmt.Printf("%-10s %s\n", e.ID, e.Title)
			}
			return nil, nil
		}
		selected, err := selectExperiments(*expIDs)
		if err != nil {
			return nil, err
		}
		var reports []*figures.Report
		for _, exp := range selected {
			r, err := exp.Run(*quick)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", exp.ID, err)
			}
			r.Print(os.Stdout)
			reports = append(reports, r)
		}
		return reports, nil
	}
}

// selectExperiments resolves -exp: empty means every experiment, a
// repeated ID runs once, and a list that names no experiment is an error.
func selectExperiments(ids string) ([]figures.Experiment, error) {
	if ids == "" {
		return figures.All(), nil
	}
	var selected []figures.Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		exp, ok := figures.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		seen[id] = true
		selected = append(selected, exp)
	}
	if len(selected) == 0 {
		return nil, errors.New("no experiments selected")
	}
	return selected, nil
}

func chaosReport(scratch string, seed int64) (any, error) {
	sum, err := chaos.Run(scratch, seed)
	if err != nil {
		return nil, err
	}
	for _, res := range sum.Results {
		fmt.Printf("%-22s fault points %3d  cases %3d  violations %d\n",
			res.Scenario, res.FaultPoints, res.Cases, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("  VIOLATION step %d mode %-12s %s %s: %s\n",
				v.Step, v.Mode, v.Op.Kind, v.Op.Path, v.Detail)
		}
	}
	fmt.Printf("total: %d fault points, %d cases, %d violations (seed %d)\n",
		sum.FaultPoints, sum.Cases, sum.Violations, sum.Seed)
	if sum.Violations != 0 {
		return sum, fmt.Errorf("%d durability invariant violations", sum.Violations)
	}
	return sum, nil
}

func fleetReport(scratch string) (any, error) {
	r, err := stress.RunFleetKillShard(stress.FleetKillOptions{DataDir: scratch})
	if err != nil {
		return nil, err
	}
	fmt.Printf("fleet failover drill: %d shards (replication %d), %d writers\n",
		r.Shards, r.Replication, r.Writers)
	fmt.Printf("  victim %s  epoch %d -> %d  duration %dms\n",
		r.Victim, r.EpochBefore, r.EpochAfter, r.DurationMS)
	fmt.Printf("  acked %d (victim-owned %d)  lost %d  replica-verified %d\n",
		r.Acked, r.AckedVictim, r.LostWrites, r.ReplicaVerified)
	fmt.Printf("  degraded %d  transient errors %d  post-failover writes %d\n",
		r.Degraded, r.TransientErrors, r.PostFailoverOps)
	return r, r.Err()
}
