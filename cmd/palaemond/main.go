// Command palaemond runs a PALÆMON trust-management-service instance: it
// launches the (simulated) enclave, performs the Fig 6 startup protocol,
// attests itself to a PALÆMON CA, and serves the REST/TLS API until
// interrupted — at which point it drains and persists the counter version
// so a clean restart passes the rollback check.
//
// Logs are structured key=value lines on stdout (DESIGN.md §11); the
// startup banner carries the instance identity (platform ID, MRE, IAS
// key, DB epoch) so a supervisor can parse readiness and identity from
// the same stream.
//
// With -shards N the daemon instead serves a replicated fleet
// (DESIGN.md §14): N sharded instances with per-shard WAL followers, a
// consistent-hash ring over policy names, and a signed discovery
// document at /v2/fleet on every shard. The banner then prints each
// shard's endpoint and the discovery-document public key clients verify
// the doc with (palaemonctl -fleet-key).
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"palaemon"
	"palaemon/internal/fleet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "palaemond:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataDir     = flag.String("data", "./palaemon-data", "encrypted database directory")
		platformDir = flag.String("platform", "", "durable platform NVRAM directory (default: <data>/platform)")
		recover     = flag.Bool("recover", false, "acknowledge fail-over after a crash (v < c)")

		tenantRate    = flag.Float64("tenant-rate", 0, "per-tenant sustained request rate (req/s, 0 = unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 0, "per-tenant burst capacity (default: ceil of -tenant-rate)")
		maxConcurrent = flag.Int("max-concurrent", 0, "instance-wide concurrent requests (0 = unlimited)")

		opsAddr   = flag.String("ops-addr", "", "plaintext operational endpoint: /metrics, /healthz, /readyz, /debug/pprof (empty = disabled)")
		auditPath = flag.String("audit", "", "hash-chained audit log file (default: <data>/audit.log, \"off\" = disabled)")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")

		shards      = flag.Int("shards", 0, "serve a replicated fleet of N shards from this process instead of a single instance (-data holds one subdirectory per shard)")
		replication = flag.Int("replication", 2, "fleet mode: copies of each shard's data, the primary included (1 = no followers)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(palaemon.NewTextLogHandler(os.Stdout, level))

	if *shards > 0 {
		// Only the flags runFleet consumes are accepted; anything else the
		// operator set is refused by name — a fleet that silently dropped
		// -audit off or a -platform directory would run with neither and
		// say nothing.
		var refused []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "data", "shards", "replication", "log-level":
			default:
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 {
			return fmt.Errorf("%s not supported in fleet mode (-shards)", strings.Join(refused, ", "))
		}
		return runFleet(logger, *dataDir, *shards, *replication)
	}

	// Admission control is enabled by any limit flag; without them the
	// daemon serves unlimited, as before.
	var limits *palaemon.AdmissionLimits
	if *tenantRate > 0 || *maxConcurrent > 0 {
		limits = &palaemon.AdmissionLimits{
			TenantRate:    *tenantRate,
			TenantBurst:   *tenantBurst,
			MaxConcurrent: *maxConcurrent,
		}
	}

	dep, err := palaemon.StartService(palaemon.DeploymentOptions{
		DataDir:       *dataDir,
		PlatformDir:   *platformDir,
		Recover:       *recover,
		Limits:        limits,
		Observability: true,
		LogHandler:    logger.Handler(),
		AuditPath:     *auditPath,
		OpsAddr:       *opsAddr,
	})
	if err != nil {
		return err
	}
	// Install the handler before the banner goes out: a supervisor may
	// signal as soon as it sees the endpoint line. During StartService the
	// default disposition still applies, so a wedged startup stays
	// interruptible.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	logger.Info("serving", "url", dep.URL())
	if ops := dep.OpsURL(); ops != "" {
		logger.Info("ops endpoint", "url", ops)
	}
	if dep.Obs.Audit != nil {
		logger.Info("audit chain", "path", dep.Obs.Audit.Path())
	}
	if limits != nil {
		logger.Info("admission limits",
			"tenant_rate", limits.TenantRate,
			"tenant_burst", limits.TenantBurst,
			"max_concurrent", limits.MaxConcurrent)
	}
	logger.Info("instance identity",
		"platform", dep.Platform.ID(),
		"mre", dep.Instance.MRE().String(),
		"ias_key", fmt.Sprintf("%x", dep.IAS.PublicKey()))
	// The DB epoch line doubles as the ready marker: everything a
	// supervisor needs is out once it appears.
	logger.Info("ready", "db_epoch", dep.Instance.DBVersion())

	<-stop
	logger.Info("draining")
	if err := dep.Close(); err != nil {
		return err
	}
	logger.Info("clean shutdown (v = c)")
	return nil
}

// runFleet serves a replicated in-process fleet: N shard primaries, each
// with WAL followers on the other instances, all publishing the same
// signed discovery document. Clients seed from any shard's /v2/fleet and
// verify the doc against the key printed in the banner.
func runFleet(logger *slog.Logger, dataDir string, shards, replication int) error {
	if err := os.MkdirAll(dataDir, 0o700); err != nil {
		return err
	}
	f, err := fleet.New(fleet.Options{
		Shards:      shards,
		Replication: replication,
		DataDir:     dataDir,
		Observe:     true,
	})
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	for _, name := range f.Shards() {
		logger.Info("shard serving", "shard", name, "url", f.Endpoint(name))
	}
	// The doc key is what palaemonctl -fleet-key (and any client) pins to
	// verify the discovery document; without it the fleet doc is just an
	// unauthenticated claim.
	logger.Info("fleet identity",
		"shards", shards,
		"replication", replication,
		"doc_key", hex.EncodeToString(f.DocKey()))
	logger.Info("ready", "fleet_epoch", f.Epoch())

	<-stop
	logger.Info("draining fleet")
	f.Close()
	logger.Info("clean shutdown")
	return nil
}
