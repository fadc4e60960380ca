package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/board"
	"palaemon/internal/ca"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/wire"
)

// genPolicy builds a policy whose content encodes a generation number, so
// readers can check the freshness of whatever the instance releases.
func genPolicy(name string, gen int, mres ...sgx.Measurement) *policy.Policy {
	return &policy.Policy{
		Name: name,
		Services: []policy.Service{{
			Name:       "app",
			Command:    "serve --gen $$gen",
			MREnclaves: mres,
		}},
		Secrets: []policy.Secret{{
			Name:  "gen",
			Type:  policy.SecretExplicit,
			Value: strconv.Itoa(gen),
		}},
	}
}

// TestPolicyCacheCoherenceRace races the write path (updates, delete +
// recreate) against the cached read paths (attestation, secret fetch at
// the instance, secret fetch through the HTTP route, which serves the
// snapshot's encoded body) and checks that no released configuration is
// ever staler than the newest acknowledged write that preceded the read —
// the invariant the invalidate-under-stripe-lock protocol (DESIGN.md §8)
// promises, for the snapshot and for everything memoized on it. Run under
// -race it also proves the cache itself is data-race free.
func TestPolicyCacheCoherenceRace(t *testing.T) {
	p := fastPlatform(t)
	inst := openInstance(t, p, t.TempDir())
	defer inst.Shutdown(context.Background())
	ctx := context.Background()

	bin := appBinary()
	enclave, err := p.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Destroy()

	// The HTTP reader's certificate owns the policy, so every reader and
	// the writer act as the creator.
	auth, err := ca.New(p, ca.Config{TrustedMREs: []sgx.Measurement{inst.MRE()}, CertValidity: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()
	srv, err := Serve(inst, ServerOptions{Authority: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cert, owner, err := NewClientCertificate("owner")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(ClientOptions{BaseURL: srv.URL(), Roots: auth.Root().Pool(), Certificate: cert})
	defer cli.CloseIdle()

	const name = "race"
	if err := inst.CreatePolicy(ctx, owner, genPolicy(name, 1, bin.Measure())); err != nil {
		t.Fatalf("CreatePolicy: %v", err)
	}

	// acked holds the highest generation whose write has been acknowledged.
	var acked atomic.Int64
	acked.Store(1)
	done := make(chan struct{})
	var writerErr error

	const writes = 150
	go func() {
		defer close(done)
		for g := 2; g <= writes; g++ {
			var err error
			if g%7 == 0 {
				// Delete + recreate: Revision restarts at 1, CreateID
				// changes — the recheck case Revision alone cannot catch.
				if err = inst.DeletePolicy(ctx, owner, name); err == nil {
					err = inst.CreatePolicy(ctx, owner, genPolicy(name, g, bin.Measure()))
				}
			} else {
				err = inst.UpdatePolicy(ctx, owner, genPolicy(name, g, bin.Measure()))
			}
			switch {
			case err == nil:
				acked.Store(int64(g))
			case errors.Is(err, ErrConflict):
				// A racing attestation minted the FSPF key between our
				// approval and store; benign, retry with the next gen.
			case errors.Is(err, ErrPolicyNotFound), errors.Is(err, ErrPolicyExists):
				// Lost a race with our own delete+recreate window.
			default:
				writerErr = err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var readerErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if readerErr == nil {
			readerErr = err
		}
		errMu.Unlock()
	}
	var attests, fetches, routed atomic.Int64
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			signer, err := cryptoutil.NewSigner()
			if err != nil {
				fail(err)
				return
			}
			ev := attest.NewEvidence(enclave, name, "app", signer.Public)
			for {
				select {
				case <-done:
					return
				default:
				}
				if r%3 == 0 {
					start := acked.Load()
					cfg, err := inst.AttestApplication(context.Background(), ev, p.QuotingKey())
					if err != nil {
						// Conflicts and delete windows are benign; the
						// attestation wrap hides sentinel chains for
						// resolve failures, so ErrAttestation covers the
						// policy-missing window too.
						if errors.Is(err, ErrConflict) || errors.Is(err, ErrAttestation) || errors.Is(err, ErrPolicyNotFound) {
							continue
						}
						fail(fmt.Errorf("attest: %w", err))
						return
					}
					gen, err := strconv.Atoi(cfg.Secrets["gen"])
					if err != nil {
						fail(fmt.Errorf("released gen %q: %w", cfg.Secrets["gen"], err))
						return
					}
					if int64(gen) < start {
						fail(fmt.Errorf("stale release: gen %d, acked %d before the read", gen, start))
						return
					}
					if want := "serve --gen " + cfg.Secrets["gen"]; cfg.Command != want {
						fail(fmt.Errorf("compiled command %q, want %q", cfg.Command, want))
						return
					}
					attests.Add(1)
				} else {
					start := acked.Load()
					var secrets map[string]string
					var err error
					if r%3 == 1 {
						secrets, err = inst.FetchSecrets(ctx, owner, name, nil)
					} else {
						secrets, err = cli.FetchSecrets(ctx, name, nil, nil)
					}
					if err != nil {
						if errors.Is(err, ErrConflict) || errors.Is(err, ErrPolicyNotFound) {
							continue
						}
						fail(fmt.Errorf("fetch: %w", err))
						return
					}
					gen, err := strconv.Atoi(secrets["gen"])
					if err != nil {
						fail(fmt.Errorf("fetched gen %q: %w", secrets["gen"], err))
						return
					}
					if int64(gen) < start {
						fail(fmt.Errorf("stale fetch: gen %d, acked %d before the read", gen, start))
						return
					}
					if r%3 == 1 {
						fetches.Add(1)
					} else {
						routed.Add(1)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if attests.Load() == 0 || fetches.Load() == 0 || routed.Load() == 0 {
		t.Fatalf("race exercised nothing: %d attests, %d fetches, %d fetches through the route", attests.Load(), fetches.Load(), routed.Load())
	}

	// Quiesced, the released content must equal the last acknowledged
	// write exactly (no later writer exists; FSPF mints do not touch it).
	for _, fetch := range []func() (map[string]string, error){
		func() (map[string]string, error) { return inst.FetchSecrets(ctx, owner, name, nil) },
		func() (map[string]string, error) { return cli.FetchSecrets(ctx, name, nil, nil) },
	} {
		secrets, err := fetch()
		if err != nil {
			t.Fatalf("final fetch: %v", err)
		}
		if got := secrets["gen"]; got != strconv.FormatInt(acked.Load(), 10) {
			t.Fatalf("final gen %s, want %d", got, acked.Load())
		}
	}
	t.Logf("attests=%d fetches=%d routed=%d acked=%d stats=%+v", attests.Load(), fetches.Load(), routed.Load(), acked.Load(), inst.CacheStats())
}

// TestPolicyCacheColdAfterRestart proves the cache never outlives the
// Fig 6 boundary: a clean restart and an operator-acknowledged -recover
// both start with an empty cache and still serve correct content.
func TestPolicyCacheColdAfterRestart(t *testing.T) {
	p := fastPlatform(t)
	dir := t.TempDir()
	ctx := context.Background()

	inst := openInstance(t, p, dir)
	if err := inst.CreatePolicy(ctx, clientA(), genPolicy("p", 7, appBinary().Measure())); err != nil {
		t.Fatalf("CreatePolicy: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := inst.FetchSecrets(ctx, clientA(), "p", nil); err != nil {
			t.Fatalf("fetch: %v", err)
		}
	}
	if st := inst.CacheStats(); st.Hits == 0 {
		t.Fatalf("warm instance recorded no hits: %+v", st)
	}
	if err := inst.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Clean restart: cold cache, correct content.
	inst2 := openInstance(t, p, dir)
	if st := inst2.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Invalidations != 0 {
		t.Fatalf("cache not cold after restart: %+v", st)
	}
	secrets, err := inst2.FetchSecrets(ctx, clientA(), "p", nil)
	if err != nil {
		t.Fatalf("fetch after restart: %v", err)
	}
	if secrets["gen"] != "7" {
		t.Fatalf("gen %q after restart", secrets["gen"])
	}
	st := inst2.CacheStats()
	if st.Misses == 0 {
		t.Fatalf("first read after restart was not a miss: %+v", st)
	}

	// Crash + operator-acknowledged recovery: cold cache again.
	inst2.Abort()
	inst3, err := Open(Options{Platform: p, DataDir: dir, Recover: true})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer inst3.Shutdown(ctx)
	if st := inst3.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cache not cold after -recover: %+v", st)
	}
	secrets, err = inst3.FetchSecrets(ctx, clientA(), "p", nil)
	if err != nil {
		t.Fatalf("fetch after recover: %v", err)
	}
	if secrets["gen"] != "7" {
		t.Fatalf("gen %q after recover", secrets["gen"])
	}
}

// TestCacheInvalidationOnWrite pins the counter wiring: an update and a
// delete each drop the entry (and the next read re-decodes).
func TestCacheInvalidationOnWrite(t *testing.T) {
	p := fastPlatform(t)
	inst := openInstance(t, p, t.TempDir())
	defer inst.Shutdown(context.Background())
	ctx := context.Background()

	if err := inst.CreatePolicy(ctx, clientA(), genPolicy("p", 1, appBinary().Measure())); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.FetchSecrets(ctx, clientA(), "p", nil); err != nil {
		t.Fatal(err)
	}
	before := inst.CacheStats()
	if err := inst.UpdatePolicy(ctx, clientA(), genPolicy("p", 2, appBinary().Measure())); err != nil {
		t.Fatal(err)
	}
	if st := inst.CacheStats().Since(before); st.Invalidations == 0 {
		t.Fatalf("update did not invalidate: %+v", st)
	}
	secrets, err := inst.FetchSecrets(ctx, clientA(), "p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if secrets["gen"] != "2" {
		t.Fatalf("stale gen %q after update", secrets["gen"])
	}
	before = inst.CacheStats()
	if err := inst.DeletePolicy(ctx, clientA(), "p"); err != nil {
		t.Fatal(err)
	}
	if st := inst.CacheStats().Since(before); st.Invalidations == 0 {
		t.Fatalf("delete did not invalidate: %+v", st)
	}
	if _, err := inst.FetchSecrets(ctx, clientA(), "p", nil); !errors.Is(err, ErrPolicyNotFound) {
		t.Fatalf("fetch after delete: %v", err)
	}
}

// TestSecretsBodyByteIdentity pins the encode-once body to the encoder it
// stands in for: for every policy shape the bytes the snapshot keeps are
// exactly what writeJSON used to produce per request, trailing newline
// included — sorted keys, HTML escaping, U+2028 and invalid UTF-8 handled
// as encoding/json handles them. The expectation is built from the
// policy's own secret list, not from the Compiled view under test.
func TestSecretsBodyByteIdentity(t *testing.T) {
	many := func(n int) []policy.Secret {
		out := make([]policy.Secret, n)
		for i := range out {
			// Descending names: the body must not depend on listing order.
			out[i] = policy.Secret{Name: fmt.Sprintf("secret_%03d", n-i), Value: fmt.Sprintf("value-%d", i)}
		}
		return out
	}
	cases := []struct {
		name    string
		secrets []policy.Secret
	}{
		{"0 secrets", nil},
		{"1 secret", many(1)},
		{"4 secrets", many(4)},
		{"128 secrets", many(128)},
		{"hostile names and values", []policy.Secret{
			{Name: `quote"d`, Value: `say "hi"`},
			{Name: `back\slash`, Value: `C:\path\`},
			{Name: "<tag>", Value: "<script>alert(1)</script>"},
			{Name: "a&b", Value: "x&y"},
			{Name: "line\u2028sep", Value: "para\u2029sep"},
			{Name: "bad\xffutf8", Value: "\xc3\x28 \xf0\x9f"},
			{Name: "ctl\x00\x1f", Value: "tab\there\nnewline\r"},
			{Name: "", Value: ""},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &policy.Policy{Name: "p", Secrets: tc.secrets}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(wire.SecretsResponse{Secrets: p.SecretValues()}); err != nil {
				t.Fatal(err)
			}
			s := &policySnapshot{pol: p, compiled: policy.Compile(p)}
			got := s.secretsBody()
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("body differs\n got %q\nwant %q", got, want.Bytes())
			}
			if again := s.secretsBody(); len(got) > 0 && &again[0] != &got[0] {
				t.Fatal("second call encoded again")
			}
			// And back: what the client makes of the body is the policy's
			// secrets (invalid UTF-8 arrives repaired, as it was sent).
			var back, viaStd wire.SecretsResponse
			if err := wire.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got, &viaStd); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, viaStd) || len(back.Secrets) != len(p.SecretValues()) {
				t.Fatalf("decoded %v, encoding/json decodes %v", back.Secrets, viaStd.Secrets)
			}
			// A body of plain ASCII strings decodes within the scanner's
			// budget (wire.TestSecretsDecodeAllocBudget), which encoding/json
			// cannot meet: the snapshot's bodies are on the fast path.
			if tc.name != "hostile names and values" && !raceEnabled {
				allocs := testing.AllocsPerRun(20, func() {
					var out wire.SecretsResponse
					if err := wire.Unmarshal(got, &out); err != nil {
						t.Fatal(err)
					}
				})
				if budget := float64(2*len(tc.secrets) + 6); allocs > budget {
					t.Fatalf("decode allocates %.0f, budget %.0f: the body fell off the scanner", allocs, budget)
				}
			}
		})
	}
}

// TestFetchRouteServesEncodedBody checks the same identity at the real
// surface: the all-secrets route answers the snapshot's bytes, they equal
// the encoding of what the map API returns, a named subset still goes
// through the per-request encoder, and an update replaces the body.
func TestFetchRouteServesEncodedBody(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	cli, owner := s.client(t, "owner")
	mre := appBinary().Measure()

	pol := genPolicy("enc", 1, mre)
	pol.Secrets = append(pol.Secrets, policy.Secret{Name: "a<b", Type: policy.SecretExplicit, Value: "x&y\u2028"})
	if err := s.inst.CreatePolicy(ctx, owner, pol); err != nil {
		t.Fatal(err)
	}
	encode := func(secrets map[string]string) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(wire.SecretsResponse{Secrets: secrets}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	post := func(request any) []byte {
		t.Helper()
		status, _, body, err := cli.doRaw(ctx, http.MethodPost, wire.PathPrefix+"/policies/enc/secrets", request, nil, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("request %v: status %d, err %v, body %s", request, status, err, body)
		}
		return body
	}
	for gen := 1; gen <= 2; gen++ {
		all, err := s.inst.FetchSecrets(ctx, owner, "enc", nil)
		if err != nil {
			t.Fatal(err)
		}
		if all["gen"] != strconv.Itoa(gen) {
			t.Fatalf("gen %q, want %d", all["gen"], gen)
		}
		for _, request := range []any{struct{}{}, map[string]any{"names": []string{}}, map[string]any{"names": nil}} {
			if got := post(request); !bytes.Equal(got, encode(all)) {
				t.Fatalf("gen %d, request %v:\n got %q\nwant %q", gen, request, got, encode(all))
			}
		}
		want := encode(map[string]string{"gen": strconv.Itoa(gen)})
		if got := post(wire.FetchSecretsRequest{Names: []string{"gen"}}); !bytes.Equal(got, want) {
			t.Fatalf("gen %d, named subset: got %q, want %q", gen, got, want)
		}
		next := genPolicy("enc", gen+1, mre)
		next.Secrets = append(next.Secrets, pol.Secrets[1])
		if err := s.inst.UpdatePolicy(ctx, owner, next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoardDigestOncePerRevision: a governed read shows the board the same
// digest every time and hashes the policy once per stored revision; an
// update brings a new digest; and nothing on a board-less policy hashes at
// all.
func TestBoardDigestOncePerRevision(t *testing.T) {
	// The memo itself: the second call does not look at the policy again.
	pol := genPolicy("memo", 1, appBinary().Measure())
	snap := &policySnapshot{pol: pol}
	first := snap.boardDigest()
	if first != board.DigestPolicy(pol) {
		t.Fatal("memoized digest is not board.DigestPolicy of the snapshot's policy")
	}
	snap.pol = genPolicy("memo", 2, appBinary().Measure())
	if snap.boardDigest() != first {
		t.Fatal("second call hashed again")
	}

	var mu sync.Mutex
	seen := map[string][][32]byte{} // operation -> digests, in arrival order
	counting := func(req board.Request) (bool, string) {
		mu.Lock()
		defer mu.Unlock()
		seen[req.Operation] = append(seen[req.Operation], req.Digest)
		return true, ""
	}
	b, ev := boardFixture(t, []board.ApprovalFunc{counting}, nil)
	inst, err := Open(Options{Platform: fastPlatform(t), DataDir: t.TempDir(), Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Shutdown(context.Background())
	ctx := context.Background()

	governed := genPolicy("governed", 1, appBinary().Measure())
	governed.Board = b
	if err := inst.CreatePolicy(ctx, clientA(), governed); err != nil {
		t.Fatal(err)
	}
	const reads = 5
	readAll := func() [32]byte {
		t.Helper()
		mu.Lock()
		seen["read"] = nil
		mu.Unlock()
		for n := 0; n < reads; n++ {
			if _, err := inst.FetchSecrets(ctx, clientA(), "governed", nil); err != nil {
				t.Fatal(err)
			}
		}
		cached, ok := inst.pcache.peek("governed")
		if !ok {
			t.Fatal("no cached snapshot after reads")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen["read"]) != reads {
			t.Fatalf("board asked %d times for %d reads", len(seen["read"]), reads)
		}
		for _, d := range seen["read"] {
			if d != board.DigestPolicy(cached.pol) {
				t.Fatal("board was shown a digest that is not the stored revision's")
			}
		}
		return seen["read"][0]
	}
	rev1 := readAll()
	next := genPolicy("governed", 2, appBinary().Measure())
	next.Board = b
	if err := inst.UpdatePolicy(ctx, clientA(), next); err != nil {
		t.Fatal(err)
	}
	if rev2 := readAll(); rev2 == rev1 {
		t.Fatal("the digest survived an update")
	}
	if got := seen["update"]; len(got) != 1 || got[0] == rev1 {
		t.Fatalf("update showed the board %d digests (the new content's, once, is wanted)", len(got))
	}

	// Board-less: approve never calls for a digest, and no snapshot a
	// create, update, fetch, reset or delete went through carries one.
	never := func() [32]byte {
		t.Error("digest computed for a board-less policy")
		return [32]byte{}
	}
	if err := inst.approve(ctx, policy.Board{}, board.Request{}, never); err != nil {
		t.Fatal(err)
	}
	if err := inst.CreatePolicy(ctx, clientA(), genPolicy("plain", 1, appBinary().Measure())); err != nil {
		t.Fatal(err)
	}
	unhashed := func(step string) {
		t.Helper()
		cached, ok := inst.pcache.peek("plain")
		if !ok {
			t.Fatalf("after %s: no cached snapshot", step)
		}
		if cached.digest != ([32]byte{}) {
			t.Fatalf("after %s: the board-less policy's snapshot carries a digest", step)
		}
	}
	if _, err := inst.FetchSecrets(ctx, clientA(), "plain", nil); err != nil {
		t.Fatal(err)
	}
	unhashed("create + fetch")
	if err := inst.UpdatePolicy(ctx, clientA(), genPolicy("plain", 2, appBinary().Measure())); err != nil {
		t.Fatal(err)
	}
	if err := inst.ResetService(ctx, clientA(), "plain", "app"); err != nil {
		t.Fatal(err)
	}
	unhashed("update + reset")
	last, _ := inst.pcache.peek("plain")
	if err := inst.DeletePolicy(ctx, clientA(), "plain"); err != nil {
		t.Fatal(err)
	}
	if last.digest != ([32]byte{}) {
		t.Fatal("delete hashed the board-less policy")
	}
}

// TestWarmFetchAllocBudget pins what a warm, board-less all-secrets fetch
// allocates at the instance layer. The encoded-body path allocates nothing
// — no digest, no map, no encode — whatever the policy's size; the map API
// allocates the map it hands out and nothing that grows with the request.
func TestWarmFetchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	inst := openInstance(t, fastPlatform(t), t.TempDir())
	defer inst.Shutdown(context.Background())
	ctx := context.Background()

	pol := genPolicy("warm", 1, appBinary().Measure())
	for n := 0; n < 127; n++ {
		pol.Secrets = append(pol.Secrets, policy.Secret{Name: fmt.Sprintf("s%03d", n), Type: policy.SecretExplicit, Value: "v"})
	}
	if err := inst.CreatePolicy(ctx, clientA(), pol); err != nil {
		t.Fatal(err)
	}
	// What the secrets route does below writeJSON.
	viaBody := func() {
		snap, err := inst.readGate(ctx, clientA(), "warm")
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.secretsBody()) == 0 {
			t.Fatal("empty body")
		}
	}
	viaBody()
	body := testing.AllocsPerRun(200, viaBody)
	if body != 0 {
		t.Errorf("warm encoded-body fetch: %.0f allocs/op, want 0", body)
	}
	asMap := testing.AllocsPerRun(200, func() {
		if _, err := inst.FetchSecrets(ctx, clientA(), "warm", nil); err != nil {
			t.Fatal(err)
		}
	})
	// One map of 128 entries: the header plus its bucket arrays.
	if asMap > 4 {
		t.Errorf("warm map fetch: %.0f allocs/op, want at most 4", asMap)
	}
}
