// Package palaemon_test holds the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (run
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices called out in DESIGN.md §5. The full tables with paper-reference
// columns are regenerated by `go run ./cmd/palaemonreport figures`.
package palaemon_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/board"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fspf"
	"palaemon/internal/ias"
	"palaemon/internal/mcounter"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/simclock"
	"palaemon/internal/simnet"
	"palaemon/internal/workloads/httpserver"
	"palaemon/internal/workloads/kms"
	"palaemon/internal/workloads/kvstore"
	"palaemon/internal/workloads/mlinfer"
	"palaemon/internal/workloads/sqldb"
	"palaemon/internal/workloads/wenv"
	"palaemon/internal/workloads/zk"
)

// benchStack builds an in-process instance on a rate-limit-free platform.
func benchStack(b *testing.B) (*sgx.Platform, *core.Instance) {
	b.Helper()
	model := sgx.DefaultCostModel()
	model.CounterInterval = 0
	platform, err := sgx.NewPlatform(sgx.Options{Model: model})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.Open(core.Options{Platform: platform, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { inst.Shutdown(context.Background()) })
	return platform, inst
}

func benchPolicy(b *testing.B, inst *core.Instance, name string, bin sgx.Binary, mutate func(*policy.Policy)) {
	b.Helper()
	pol := &policy.Policy{
		Name: name,
		Services: []policy.Service{{
			Name:       "svc",
			MREnclaves: []sgx.Measurement{bin.Measure()},
		}},
	}
	if mutate != nil {
		mutate(pol)
	}
	if err := inst.CreatePolicy(context.Background(), core.ClientID{1}, pol); err != nil {
		b.Fatal(err)
	}
}

// --- Table II ---------------------------------------------------------------

// BenchmarkTable2PageOps measures the real primitives behind the enclave
// page operations (memcpy=EADD, chunked SHA-256=EEXTEND, AES-GCM=EWB,
// zeroing=bookkeeping).
func BenchmarkTable2PageOps(b *testing.B) {
	const size = 1 << 20
	src := make([]byte, size)
	dst := make([]byte, size)
	key := cryptoutil.MustNewKey()

	b.Run("addition-memcpy", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
	b.Run("measurement-eextend", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			h := sha256.New()
			for off := 0; off < size; off += sgx.MeasurementChunk {
				h.Write(src[off : off+sgx.MeasurementChunk])
			}
			h.Sum(nil)
		}
	})
	b.Run("eviction-ewb", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			for off := 0; off < size; off += sgx.PageSize {
				if _, err := cryptoutil.Seal(key, src[off:off+sgx.PageSize], nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bookkeeping-zero", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = 0
			}
		}
	})
}

// --- Fig 7 -------------------------------------------------------------------

// BenchmarkFig7Startup measures enclave launch (real measurement work +
// cost-model breakdown) for the code-only and naive loaders.
func BenchmarkFig7Startup(b *testing.B) {
	platform, err := sgx.NewPlatform(sgx.Options{Clock: simclock.NewVirtual()})
	if err != nil {
		b.Fatal(err)
	}
	bin := sgx.Binary{Name: "fig7", Code: make([]byte, 80<<10)}
	for _, naive := range []bool{false, true} {
		name := "palaemon-loader"
		if naive {
			name = "naive-loader"
		}
		b.Run(name, func(b *testing.B) {
			var modelled time.Duration
			for i := 0; i < b.N; i++ {
				e, err := platform.Launch(bin, sgx.LaunchOptions{
					HeapBytes:       32 << 20,
					MeasureAllPages: naive,
					AllowPaging:     true,
				})
				if err != nil {
					b.Fatal(err)
				}
				modelled += e.Startup().Total()
				e.Destroy()
			}
			b.ReportMetric(float64(modelled.Milliseconds())/float64(b.N), "modelled-ms/op")
		})
	}
}

// --- Fig 8 -------------------------------------------------------------------

// BenchmarkFig8Attestation measures one application attestation against a
// live instance (PALÆMON path, real crypto end to end) and reports the
// modelled IAS totals for comparison.
func BenchmarkFig8Attestation(b *testing.B) {
	platform, inst := benchStack(b)
	bin := sgx.Binary{Name: "app", Code: []byte("app")}
	benchPolicy(b, inst, "fig8", bin, nil)
	enclave, err := platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer enclave.Destroy()

	b.Run("palaemon-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := attest.NewEvidence(enclave, "fig8", "svc", cryptoutil.MustNewSigner().Public)
			if _, err := inst.AttestApplication(context.Background(), ev, platform.QuotingKey()); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, profile := range []simnet.Profile{simnet.IASFromEU, simnet.IASFromUS} {
		b.Run("modelled-"+profile.Name, func(b *testing.B) {
			clock := simclock.NewVirtual()
			svc, err := ias.New(clock, 70*time.Millisecond)
			if err != nil {
				b.Fatal(err)
			}
			svc.RegisterPlatform(platform.ID(), platform.QuotingKey())
			client := ias.NewClient(svc, profile, clock)
			var total time.Duration
			for i := 0; i < b.N; i++ {
				var tr simclock.Tracker
				if _, _, err := client.Attest(enclave, nil, &tr); err != nil {
					b.Fatal(err)
				}
				total += tr.Total()
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "modelled-ms/op")
		})
	}
}

// --- Fig 9 -------------------------------------------------------------------

// BenchmarkFig9StartupThroughput measures parallel enclave launches through
// the real driver lock.
func BenchmarkFig9StartupThroughput(b *testing.B) {
	platform, err := sgx.NewPlatform(sgx.Options{Clock: simclock.NewVirtual(), EPCBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	bin := sgx.Binary{Name: "tiny", Code: make([]byte, 64<<10)}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e, err := platform.Launch(bin, sgx.LaunchOptions{HeapBytes: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			e.Destroy()
		}
	})
}

// --- Fig 10 ------------------------------------------------------------------

// BenchmarkFig10Counters measures the counter variants' increments.
func BenchmarkFig10Counters(b *testing.B) {
	b.Run("file-native", func(b *testing.B) {
		c, err := mcounter.NewFileCounter(
			&mcounter.OSFileBackend{Path: filepath.Join(b.TempDir(), "ctr")},
			mcounter.WithWriteThrough())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Increment(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := c.Close(); err != nil { // exit-time fsync, untimed
			b.Fatal(err)
		}
	})
	b.Run("file-sgx-mmap", func(b *testing.B) {
		c, err := mcounter.NewFileCounter(&mcounter.MemBackend{
			Under: &mcounter.OSFileBackend{Path: filepath.Join(b.TempDir(), "ctr")},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Increment(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("encrypted-fs", func(b *testing.B) {
		vol := fspf.CreateVolume(cryptoutil.MustNewKey())
		h, err := vol.Open("/counter")
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		var buf [8]byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf[0] = byte(i)
			if err := h.Write(buf[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("platform-modelled", func(b *testing.B) {
		clock := simclock.NewVirtual()
		model := sgx.DefaultCostModel()
		model.CounterWearLimit = 0 // the bench would wear out real NVRAM in seconds
		platform, err := sgx.NewPlatform(sgx.Options{Clock: clock, Model: model})
		if err != nil {
			b.Fatal(err)
		}
		c := platform.Counter("bench")
		start := clock.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Increment(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		virtual := clock.Since(start)
		if b.N > 1 {
			b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "modelled-ms/op")
		}
	})
}

// --- Fig 11 ------------------------------------------------------------------

// BenchmarkFig11TagLatency measures expected-tag reads and updates against a
// live instance (updates hit the fsynced WAL).
func BenchmarkFig11TagLatency(b *testing.B) {
	platform, inst := benchStack(b)
	bin := sgx.Binary{Name: "app", Code: []byte("a")}
	benchPolicy(b, inst, "fig11", bin, nil)
	enclave, err := platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer enclave.Destroy()
	cfg, err := inst.AttestApplication(context.Background(),
		attest.NewEvidence(enclave, "fig11", "svc", cryptoutil.MustNewSigner().Public),
		platform.QuotingKey())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("update", func(b *testing.B) {
		var tag fspf.Tag
		for i := 0; i < b.N; i++ {
			tag[0] = byte(i)
			if err := inst.PushTag(cfg.SessionToken, tag); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.ExpectedTag("fig11", "svc"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11SecretInjection measures 4 kB reads: shield-encrypted
// versus injected-from-memory.
func BenchmarkFig11SecretInjection(b *testing.B) {
	content := make([]byte, 4096)
	vol := fspf.CreateVolume(cryptoutil.MustNewKey())
	if err := vol.WriteFile("/f", content); err != nil {
		b.Fatal(err)
	}
	b.Run("encrypted-file", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if _, err := vol.ReadFile("/f"); err != nil {
				b.Fatal(err)
			}
		}
	})
	injected := policy.Substitute("secret=$$s\n"+string(content[:4000]), map[string]string{"s": "value"})
	b.Run("injected-from-memory", func(b *testing.B) {
		b.SetBytes(4096)
		var sink byte
		for i := 0; i < b.N; i++ {
			sink ^= injected[i%len(injected)]
		}
		_ = sink
	})
}

// --- Fig 12 ------------------------------------------------------------------

// BenchmarkFig12SecretAccess measures in-process secret retrieval for 1 and
// 100 secrets (the HTTPS and WAN layers are covered by
// `palaemonreport figures -exp fig12`).
func BenchmarkFig12SecretAccess(b *testing.B) {
	ctx := context.Background()
	_, inst := benchStack(b)
	bin := sgx.Binary{Name: "app", Code: []byte("a")}
	var names []string
	benchPolicy(b, inst, "fig12", bin, func(p *policy.Policy) {
		for i := 0; i < 100; i++ {
			n := fmt.Sprintf("key_%02d", i)
			names = append(names, n)
			p.Secrets = append(p.Secrets, policy.Secret{Name: n, Type: policy.SecretRandom})
		}
	})
	for _, n := range []int{1, 100} {
		b.Run(fmt.Sprintf("secrets-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inst.FetchSecrets(ctx, core.ClientID{1}, "fig12", names[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 13 ------------------------------------------------------------------

// BenchmarkFig13Approval measures one approval round trip over real TLS.
func BenchmarkFig13Approval(b *testing.B) {
	approvalCA, err := cryptoutil.NewCertAuthority("Bench Root", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	member, err := board.NewMember("bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := member.Serve(approvalCA); err != nil {
		b.Fatal(err)
	}
	defer member.Close()
	ev := board.NewEvaluator(approvalCA, 5*time.Second)
	pb := policy.Board{Members: []policy.BoardMember{member.Descriptor(false)}, Threshold: 1}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := board.Request{PolicyName: "p", Operation: "update", Revision: uint64(i)}
		if d := ev.Evaluate(ctx, pb, req); !d.Approved {
			b.Fatalf("not approved: %+v", d)
		}
	}
}

// --- Figs 14–16 ---------------------------------------------------------------

func hwBenchEnv(b *testing.B, microcode sgx.MicrocodeLevel, name string) *wenv.Env {
	b.Helper()
	platform, err := sgx.NewPlatform(sgx.Options{Microcode: microcode})
	if err != nil {
		b.Fatal(err)
	}
	enclave, err := platform.Launch(sgx.Binary{Name: name, Code: []byte(name)},
		sgx.LaunchOptions{AllowPaging: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(enclave.Destroy)
	return wenv.HW(enclave)
}

// BenchmarkFig14Barbican measures the KMS get path per variant/microcode.
func BenchmarkFig14Barbican(b *testing.B) {
	type variant struct {
		name   string
		flavor kms.Flavor
		env    func() *wenv.Env
	}
	variants := []variant{
		{"native", kms.FlavorBarbican, wenv.Native},
		{"palaemon-0x58", kms.FlavorBarbican, func() *wenv.Env { return hwBenchEnv(b, sgx.MicrocodePreSpectre, "b58") }},
		{"palaemon-0x8e", kms.FlavorBarbican, func() *wenv.Env { return hwBenchEnv(b, sgx.MicrocodePostForeshadow, "b8e") }},
		{"barbie-0x8e", kms.FlavorBarbiE, func() *wenv.Env { return hwBenchEnv(b, sgx.MicrocodePostForeshadow, "e8e") }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			server, err := kms.New(kms.Options{Flavor: v.flavor, Env: v.env()})
			if err != nil {
				b.Fatal(err)
			}
			if err := server.Put(kms.EncodePut("root", "k", []byte("v"))); err != nil {
				b.Fatal(err)
			}
			req := kms.EncodeGet("root", "k")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.Get(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15Vault measures Vault gets native/EMU/HW (1.9 GB heap pages
// in HW mode).
func BenchmarkFig15Vault(b *testing.B) {
	for _, mode := range []string{"native", "emu", "hw"} {
		b.Run(mode, func(b *testing.B) {
			env := wenv.Native()
			switch mode {
			case "emu":
				env = wenv.EMU()
			case "hw":
				env = hwBenchEnv(b, sgx.MicrocodePostForeshadow, "vault")
			}
			server, err := kms.New(kms.Options{Flavor: kms.FlavorVault, Env: env})
			if err != nil {
				b.Fatal(err)
			}
			if err := server.Put(kms.EncodePut("root", "k", []byte("v"))); err != nil {
				b.Fatal(err)
			}
			req := kms.EncodeGet("root", "k")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.Get(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16Memcached measures the memtier mix per variant.
func BenchmarkFig16Memcached(b *testing.B) {
	for _, mode := range []string{"native-stunnel", "emu", "hw"} {
		b.Run(mode, func(b *testing.B) {
			env := wenv.Native()
			stunnel := mode == "native-stunnel"
			switch mode {
			case "emu":
				env = wenv.EMU()
			case "hw":
				env = hwBenchEnv(b, sgx.MicrocodePostForeshadow, "memcached")
			}
			cache, err := kvstore.New(kvstore.Options{
				Env: env, TLS: true, Stunnel: stunnel, MemLimitBytes: 1 << 30,
			})
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("k%d", i%64)
				if i%11 == 0 {
					if _, err := cache.Serve(kvstore.EncodeSet(key, value)); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if _, err := cache.Serve(kvstore.EncodeGet(key)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 17 ------------------------------------------------------------------

// BenchmarkFig17aNginx measures 67 kB GETs per variant.
func BenchmarkFig17aNginx(b *testing.B) {
	type variant struct {
		name    string
		mode    string
		encrypt bool
	}
	variants := []variant{
		{"native", "native", false},
		{"palaemon-hw", "hw", false},
		{"hw-shield", "hw", true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			env := wenv.Native()
			if v.mode == "hw" {
				env = hwBenchEnv(b, sgx.MicrocodePostForeshadow, "nginx-"+v.name)
			}
			server, err := httpserver.New(httpserver.Options{Env: env, EncryptFiles: v.encrypt, TLS: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := server.PublishCorpus(4, httpserver.DefaultFileSize); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(httpserver.DefaultFileSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.Get(httpserver.EncodeGet(httpserver.CorpusPath(i % 4))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17bcZooKeeper measures ensemble reads and writes.
func BenchmarkFig17bcZooKeeper(b *testing.B) {
	for _, variant := range []string{"native-stunnel", "shielded-hw"} {
		var envs []*wenv.Env
		stunnel := variant == "native-stunnel"
		if variant == "shielded-hw" {
			for i := 0; i < 3; i++ {
				envs = append(envs, hwBenchEnv(b, sgx.MicrocodePostForeshadow, fmt.Sprintf("zk%d", i)))
			}
		}
		ensemble, err := zk.New(zk.Options{Nodes: 3, Envs: envs, TLS: true, Stunnel: stunnel, LinkCost: time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		if err := ensemble.Set("/bench", make([]byte, 256)); err != nil {
			b.Fatal(err)
		}
		b.Run(variant+"/read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ensemble.Get(i%3, "/bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(variant+"/setsingle", func(b *testing.B) {
			value := make([]byte, 256)
			for i := 0; i < b.N; i++ {
				if err := ensemble.Set("/bench", value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17dMariaDB measures TPC-C new-order transactions at two pool
// sizes per mode.
func BenchmarkFig17dMariaDB(b *testing.B) {
	for _, pool := range []int64{8 << 20, 256 << 20} {
		for _, mode := range []string{"native", "hw"} {
			b.Run(fmt.Sprintf("pool-%dMB/%s", pool>>20, mode), func(b *testing.B) {
				env := wenv.Native()
				if mode == "hw" {
					env = hwBenchEnv(b, sgx.MicrocodePostForeshadow, "mariadb")
				}
				engine, err := sqldb.New(sqldb.Options{Env: env, BufferPoolBytes: pool, DiskCost: 20 * time.Microsecond})
				if err != nil {
					b.Fatal(err)
				}
				tpcc, err := sqldb.NewTPCC(engine, 20000)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tpcc.NewOrder(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- §VI --------------------------------------------------------------------

// BenchmarkProductionUseCase measures one ML inference, native versus the
// shielded pipeline.
func BenchmarkProductionUseCase(b *testing.B) {
	model, err := mlinfer.NewModel(512, 256, 64)
	if err != nil {
		b.Fatal(err)
	}
	input := make([]float32, model.InputSize())
	b.Run("native", func(b *testing.B) {
		p, err := mlinfer.NewPipeline(mlinfer.PipelineOptions{Model: model})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.SubmitImage("doc", input); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Process("doc"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("palaemon", func(b *testing.B) {
		platform, err := sgx.NewPlatform(sgx.Options{EPCBytes: model.SizeBytes() / 2})
		if err != nil {
			b.Fatal(err)
		}
		enclave, err := platform.Launch(sgx.Binary{Name: "ml", Code: []byte("m")},
			sgx.LaunchOptions{AllowPaging: true})
		if err != nil {
			b.Fatal(err)
		}
		defer enclave.Destroy()
		p, err := mlinfer.NewPipeline(mlinfer.PipelineOptions{
			Env:         wenv.HW(enclave),
			Model:       model,
			CompanyVol:  fspf.CreateVolume(cryptoutil.MustNewKey()),
			CustomerVol: fspf.CreateVolume(cryptoutil.MustNewKey()),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.SubmitImage("doc", input); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Process("doc"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) --------------------------------------------------

// BenchmarkAblationCounterPerUpdate contrasts PALÆMON's once-per-lifecycle
// counter protocol with the naive per-update bump (the whole point of
// §IV-D): per-update throughput is bounded by the hardware interval.
func BenchmarkAblationCounterPerUpdate(b *testing.B) {
	b.Run("lifecycle-protocol", func(b *testing.B) {
		// One counter bump per instance lifecycle; tag updates are pure DB
		// writes. Measure the tag-update path.
		platform, inst := benchStack(b)
		bin := sgx.Binary{Name: "app", Code: []byte("a")}
		benchPolicy(b, inst, "ablation", bin, nil)
		enclave, err := platform.Launch(bin, sgx.LaunchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer enclave.Destroy()
		cfg, err := inst.AttestApplication(context.Background(),
			attest.NewEvidence(enclave, "ablation", "svc", cryptoutil.MustNewSigner().Public),
			platform.QuotingKey())
		if err != nil {
			b.Fatal(err)
		}
		var tag fspf.Tag
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tag[0] = byte(i)
			if err := inst.PushTag(cfg.SessionToken, tag); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-update-bump", func(b *testing.B) {
		// Naive design: every tag update also bumps the hardware counter.
		// The modelled-ms/op metric shows the 50 ms interval this costs;
		// the wear limit is lifted only so the bench itself can loop.
		clock := simclock.NewVirtual()
		model := sgx.DefaultCostModel()
		model.CounterWearLimit = 0
		platform, err := sgx.NewPlatform(sgx.Options{Clock: clock, Model: model})
		if err != nil {
			b.Fatal(err)
		}
		c := platform.Counter("naive")
		start := clock.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Increment(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Since(start).Milliseconds())/float64(b.N), "modelled-ms/op")
	})
}

// BenchmarkAblationTagPushBatching contrasts pushing the tag on every write
// against the close/sync batching the runtime performs.
func BenchmarkAblationTagPushBatching(b *testing.B) {
	platform, inst := benchStack(b)
	bin := sgx.Binary{Name: "app", Code: []byte("a")}
	benchPolicy(b, inst, "batching", bin, nil)
	enclave, err := platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer enclave.Destroy()
	cfg, err := inst.AttestApplication(context.Background(),
		attest.NewEvidence(enclave, "batching", "svc", cryptoutil.MustNewSigner().Public),
		platform.QuotingKey())
	if err != nil {
		b.Fatal(err)
	}
	vol := fspf.CreateVolume(cfg.FSPFKey)
	data := make([]byte, 512)

	b.Run("push-per-write", func(b *testing.B) {
		vol.OnTagChange(func(tag fspf.Tag) { _ = inst.PushTag(cfg.SessionToken, tag) })
		defer vol.OnTagChange(nil)
		for i := 0; i < b.N; i++ {
			if err := vol.WriteFile("/f", data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("push-on-close", func(b *testing.B) {
		vol.OnTagChange(nil)
		for i := 0; i < b.N; i++ {
			if err := vol.WriteFile("/f", data); err != nil {
				b.Fatal(err)
			}
		}
		if err := inst.PushTag(cfg.SessionToken, vol.Tag()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAblationQuorumSize measures approval cost as the board grows.
func BenchmarkAblationQuorumSize(b *testing.B) {
	approvalCA, err := cryptoutil.NewCertAuthority("Quorum Root", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("members-%d", n), func(b *testing.B) {
			var pb policy.Board
			for i := 0; i < n; i++ {
				m, err := board.NewMember(fmt.Sprintf("m%d", i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Serve(approvalCA); err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				pb.Members = append(pb.Members, m.Descriptor(false))
			}
			pb.Threshold = n
			ev := board.NewEvaluator(approvalCA, 5*time.Second)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := board.Request{PolicyName: "p", Operation: "update", Revision: uint64(i)}
				if d := ev.Evaluate(ctx, pb, req); !d.Approved {
					b.Fatalf("not approved: %+v", d)
				}
			}
		})
	}
}
