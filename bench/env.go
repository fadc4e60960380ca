package main

import (
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"palaemon"
	"palaemon/internal/board"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fault"
	"palaemon/internal/fleet"
	"palaemon/internal/fspf"
	"palaemon/internal/kvdb"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
)

// runConfig is what a run is given. The window, the warm-up and the number
// of timed set-ups are arguments so that the tests drive the code path of
// main with a shorter run; main always passes the protocol's values.
type runConfig struct {
	seed    uint64
	clients int
	window  time.Duration
	warmup  time.Duration
	// setups is how many times the untraced run boots and primes its
	// deployment; setup_s is their median and the last one is measured.
	setups int
	// dataDir is where deployments keep their state: the repository's
	// filesystem, never /tmp, so that an fsync costs what it really costs.
	dataDir string
}

// env is one booted deployment with its population and clients, configured
// as cmd/palaemond ships it: observability on, audit chain at its default
// path, logs discarded, per-record fsync, no admission limits, policy
// cache on, wall clock, loopback, counter interval 0.
type env struct {
	sp  spec
	dir string

	dep   *palaemon.Deployment // single instance
	fleet *fleet.Fleet         // or fleet

	board     policy.Board
	eval      *board.Evaluator
	boardStop func()
	asks      atomic.Int64

	clients []*client

	// solo is the standalone instance the traced fleet run compares a
	// shard's update against; its difference to the shard is the barrier.
	solo *core.Instance

	// Leaf-rung scratch resources of the traced run, in the same data root
	// as the deployment and shared by the clients as the instance's store
	// and audit chain are. scratchMu hands the store, and with it the
	// timing filesystem's recorder, to one client at a time, exactly where
	// the store's own lock would make the others wait.
	scratchMu    sync.Mutex
	scratchFS    *timingFS
	scratchDB    *kvdb.DB
	scratchAudit *obs.AuditLog
}

// polState is what a client knows about one of its policies: what it would
// send next, and what every answer must agree with. A policy belongs to
// one client, so nothing here is shared.
type polState struct {
	name    string
	pol     *policy.Policy
	secrets map[string]string
	shard   string

	baseRev   uint64 // stored revision after priming
	acked     uint64 // updates acknowledged since
	uncertain uint64 // updates that failed and may or may not be stored
	epoch     uint64 // last released execution epoch
	lastTag   fspf.Tag

	solo *policy.Policy // the same policy's copy on env.solo
}

type client struct {
	idx  int
	env  *env
	id   core.ClientID
	cert *tls.Certificate

	core   *core.Client            // single instance: the entry point
	fleet  *fleet.Client           // fleet: the entry point
	direct map[string]*core.Client // traced fleet run: one per shard, no routing

	enclave    *sgx.Enclave
	quotingKey ed25519.PublicKey

	pols []*polState
	gen  *opGen
	rec  *recorder
	clk  *timerClock // paces a schedule

	// lastCfg is the latest released configuration, the leaf rung's sample
	// of an attestation response.
	lastCfg *core.AppConfig

	// belowEdge is set while the client is on the instance or leaf rung.
	belowEdge bool
	// edgeN/instN alternate the two variants a fleet rung compares.
	edgeN, instN int

	attempted int
	failed    int
	firstErr  error
	lat       samples
	late      samples
	kinds     [numOps]samples
}

func (c *client) resetSamples() {
	c.attempted, c.failed, c.firstErr = 0, 0, nil
	c.lat, c.late = samples{}, samples{}
	c.kinds = [numOps]samples{}
}

// setup boots the deployment, creates the population and primes it. With
// traced set, clients also get a span recorder, the timing transport and
// their leaf-rung scratch resources.
func setup(ctx context.Context, sp spec, cfg runConfig, traced bool) (e *env, err error) {
	e = &env{sp: sp, dir: filepath.Join(cfg.dataDir, sp.name)}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o700); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = e.teardown()
		}
	}()

	if sp.governed {
		counted := func(r board.Request) (bool, string) {
			e.asks.Add(1)
			return palaemon.ApproveAll(r)
		}
		e.board, e.eval, e.boardStop, err = palaemon.NewBoard(
			[]string{"stakeholder-a", "stakeholder-b"}, []palaemon.ApprovalFunc{counted, counted})
		if err != nil {
			return nil, fmt.Errorf("board: %w", err)
		}
	}
	if sp.fleet {
		e.fleet, err = fleet.New(fleet.Options{Shards: 3, Replication: 2, DataDir: filepath.Join(e.dir, "fleet"), Observe: true})
	} else {
		e.dep, err = palaemon.StartService(palaemon.DeploymentOptions{
			DataDir:       filepath.Join(e.dir, "instance"),
			Evaluator:     e.eval,
			Observability: true,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}

	for i := 0; i < cfg.clients; i++ {
		c, err := e.newClient(i, cfg, traced)
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		e.clients = append(e.clients, c)
	}
	if traced {
		scratch := filepath.Join(e.dir, "scratch")
		e.scratchFS = &timingFS{FS: fault.OS}
		if e.scratchDB, err = kvdb.Open(scratch, cryptoutil.MustNewKey(), kvdb.Options{FS: e.scratchFS}); err != nil {
			return nil, fmt.Errorf("scratch store: %w", err)
		}
		if e.scratchAudit, err = obs.OpenAudit(filepath.Join(scratch, "audit.log")); err != nil {
			return nil, fmt.Errorf("scratch audit chain: %w", err)
		}
		if sp.fleet {
			if err := e.openSolo(); err != nil {
				return nil, fmt.Errorf("solo instance: %w", err)
			}
		}
	}
	if err := e.parallel(func(c *client) error { return c.populate(ctx) }); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	return e, nil
}

func (e *env) newClient(idx int, cfg runConfig, traced bool) (*client, error) {
	cert, id, err := core.NewClientCertificate(fmt.Sprintf("bench-%d", idx))
	if err != nil {
		return nil, err
	}
	clk, err := newTimerClock()
	if err != nil {
		return nil, err
	}
	c := &client{idx: idx, env: e, id: id, cert: cert, clk: clk}
	var wrap func(http.RoundTripper) http.RoundTripper
	if traced {
		c.rec = &recorder{client: idx}
		wrap = func(rt http.RoundTripper) http.RoundTripper { return &timingTransport{next: rt, rec: c.rec} }
	}
	if e.fleet != nil {
		var seeds []string
		for _, s := range e.fleet.Shards() {
			seeds = append(seeds, e.fleet.Endpoint(s))
		}
		roots := e.fleet.Authority().Root().Pool()
		c.fleet, err = fleet.NewClient(fleet.ClientOptions{Seeds: seeds, DocKey: e.fleet.DocKey(), Roots: roots, Certificate: cert})
		if err != nil {
			return nil, err
		}
		if traced {
			c.direct = make(map[string]*core.Client)
			for _, s := range e.fleet.Shards() {
				c.direct[s] = core.NewClient(core.ClientOptions{BaseURL: e.fleet.Endpoint(s), Roots: roots, Certificate: cert, WrapTransport: wrap})
			}
		}
	} else {
		c.core = core.NewClient(core.ClientOptions{
			BaseURL:       e.dep.URL(),
			Roots:         e.dep.Authority.Root().Pool(),
			Certificate:   cert,
			WrapTransport: wrap,
		})
		c.enclave, err = e.dep.Platform.Launch(appBinary, sgx.LaunchOptions{})
		if err != nil {
			return nil, err
		}
		c.quotingKey = e.dep.Platform.QuotingKey()
	}
	for _, p := range genPolicies(e.sp, cfg.seed, idx, cfg.clients, e.board) {
		st := &polState{name: p.Name, pol: p, secrets: p.SecretValues()}
		if e.fleet != nil {
			st.shard = e.fleet.Ring().Owner(p.Name)
		}
		c.pols = append(c.pols, st)
	}
	c.gen = newOpGen(cfg.seed, e.sp.name, idx, len(c.pols), e.sp.mix)
	return c, nil
}

// openSolo opens the standalone instance exactly as fleet.New opens a
// shard primary, minus the replication barrier.
func (e *env) openSolo() error {
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	p, err := sgx.NewPlatform(sgx.Options{Model: model})
	if err != nil {
		return err
	}
	e.solo, err = core.Open(core.Options{
		Platform:        p,
		DataDir:         filepath.Join(e.dir, "solo"),
		DBRetainEntries: -1,
		Obs:             obs.New(nil),
	})
	return err
}

// populate creates the client's policies through the workload's real entry
// point, then touches each once: connections handshaken, cache filled,
// FSPF keys minted, fleet document fetched.
func (c *client) populate(ctx context.Context) error {
	sp := c.env.sp
	for i, st := range c.pols {
		var err error
		if c.fleet != nil {
			err = c.fleet.CreatePolicy(ctx, st.pol)
		} else {
			err = c.core.CreatePolicy(ctx, st.pol)
		}
		if err != nil {
			return fmt.Errorf("create %s: %w", st.name, err)
		}
		prime := op{policy: i, nonce: uint64(i) + 1}
		if sp.mix[visitAttest] > 0 {
			if err := c.attest(ctx, st, prime, rungEdge); err != nil {
				return fmt.Errorf("prime attest %s: %w", st.name, err)
			}
		}
		if sp.mix[visitUpdate] > 0 {
			// The stored form (minted FSPF key included) is what later
			// updates must carry, or each would strand the volume key.
			stored, err := c.readPolicy(ctx, st.name)
			if err != nil {
				return fmt.Errorf("prime read %s: %w", st.name, err)
			}
			st.pol, st.baseRev = stored, stored.Revision
		}
		if sp.mix[visitFetch] > 0 {
			if err := c.fetch(ctx, st, rungEdge); err != nil {
				return fmt.Errorf("prime fetch %s: %w", st.name, err)
			}
		}
		if c.env.solo != nil {
			st.solo = st.pol.Clone()
			st.solo.Name += "-solo"
			if err := c.env.solo.CreatePolicy(ctx, c.id, st.solo); err != nil {
				return fmt.Errorf("create %s: %w", st.solo.Name, err)
			}
		}
	}
	return nil
}

func (c *client) readPolicy(ctx context.Context, name string) (*policy.Policy, error) {
	if c.fleet != nil {
		return c.fleet.ReadPolicy(ctx, name)
	}
	return c.core.ReadPolicy(ctx, name)
}

// instance is the instance that owns the policy.
func (e *env) instance(st *polState) *core.Instance {
	if e.fleet != nil {
		return e.fleet.Instance(st.shard)
	}
	return e.dep.Instance
}

// parallel runs f once per client, each on its own goroutine, and waits.
func (e *env) parallel(f func(*client) error) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// teardown stops everything setup started and deletes the data directory.
// A single instance's audit chain is verified once the file is closed.
func (e *env) teardown() error {
	var errs []error
	for _, c := range e.clients {
		if c.core != nil {
			c.core.CloseIdle()
		}
		for _, d := range c.direct {
			d.CloseIdle()
		}
		if c.enclave != nil {
			c.enclave.Destroy()
		}
		errs = append(errs, c.clk.Close())
	}
	if e.scratchDB != nil {
		errs = append(errs, e.scratchDB.Close())
	}
	errs = append(errs, e.scratchAudit.Close())
	if e.solo != nil {
		errs = append(errs, e.solo.Shutdown(context.Background()))
	}
	if e.fleet != nil {
		e.fleet.Close()
	}
	if e.dep != nil {
		errs = append(errs, e.dep.Close())
		if _, _, err := obs.VerifyAuditFile(filepath.Join(e.dir, "instance", "audit.log")); err != nil {
			errs = append(errs, fmt.Errorf("audit chain: %w", err))
		}
	}
	if e.boardStop != nil {
		e.boardStop()
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}
