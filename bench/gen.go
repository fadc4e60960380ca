package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"palaemon/internal/policy"
	"palaemon/internal/sgx"
)

// visitKind is what one visit does. A visit of kind attest is a whole
// application execution: attest, the tag pushes, the exit notification.
type visitKind uint8

const (
	visitFetch visitKind = iota
	visitAttest
	visitUpdate
)

// sizeClass is a share of a workload's policies with one secret count.
type sizeClass struct {
	secrets int
	percent int
}

// spec is a workload: its population and its traffic; README.md and
// BENCHMARK.json say why each exists.
// Everything a workload varies is here, so the four share one driver.
type spec struct {
	name     string
	policies int
	sizes    []sizeClass
	// mix is the share of each visit kind in tenths, indexed by visitKind.
	mix [3]int
	// pushes is the number of tag pushes inside one attest visit.
	pushes int
	// fleet runs against a 3-shard, 2-copy fleet, not a single instance.
	fleet bool
	// governed puts a 2-of-2 policy board on every policy.
	governed bool
	// rate is the offered visits per second in total; 0 is a closed loop.
	rate int
}

var specs = []spec{
	{
		name:     "fetch",
		policies: 2000,
		sizes:    []sizeClass{{4, 70}, {32, 20}, {128, 10}},
		mix:      [3]int{10, 0, 0},
	},
	{
		name:     "attest",
		policies: 128,
		sizes:    []sizeClass{{4, 100}},
		mix:      [3]int{0, 10, 0},
		pushes:   2,
	},
	{
		name:     "fleet_write",
		policies: 192,
		sizes:    []sizeClass{{4, 100}},
		mix:      [3]int{0, 0, 10},
		fleet:    true,
	},
	{
		name:     "governed_mix",
		policies: 64,
		sizes:    []sizeClass{{4, 100}},
		mix:      [3]int{8, 1, 1},
		governed: true,
		rate:     400,
	},
}

// durable reports whether the workload's visits make durable writes, and
// so wait on fsync.
func (sp spec) durable() bool { return sp.mix[visitAttest]+sp.mix[visitUpdate] > 0 }

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// appBinary is the application every policy admits.
var appBinary = sgx.Binary{Name: "bench-app", Code: []byte("palaemon-bench-app-v1")}

// op is one generated visit: which of the client's policies, what to do,
// and the nonce its new secret value and tags derive from.
type op struct {
	policy int
	kind   visitKind
	nonce  uint64
}

// opGen draws a client's visits from the seed. Policies come from a
// shuffled pass over the client's own policies and kinds from a shuffled
// deck of ten, so every draw is uniform while the mix over any ten visits,
// and the spread over any pass, is exact: runs with different seeds then
// differ in order, not in how much work they were given.
type opGen struct {
	rng   *rand.Rand
	perm  []int
	deck  []visitKind
	pos   int
	dealt int
}

// newRNG is the seed's stream for one purpose; streams with different
// labels are independent, so adding a consumer never shifts another's draws.
func newRNG(seed uint64, label string) *rand.Rand {
	h := sha256.Sum256([]byte(label))
	return rand.New(rand.NewPCG(seed, binary.LittleEndian.Uint64(h[:8])))
}

func newOpGen(seed uint64, workload string, client, policies int, mix [3]int) *opGen {
	g := &opGen{rng: newRNG(seed, fmt.Sprintf("%s/ops/%d", workload, client))}
	g.perm = make([]int, policies)
	for i := range g.perm {
		g.perm[i] = i
	}
	for k, tenths := range mix {
		for i := 0; i < tenths; i++ {
			g.deck = append(g.deck, visitKind(k))
		}
	}
	return g
}

func (g *opGen) next() op {
	if g.pos%len(g.perm) == 0 {
		g.rng.Shuffle(len(g.perm), func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	}
	if g.dealt%len(g.deck) == 0 {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	o := op{policy: g.perm[g.pos%len(g.perm)], kind: g.deck[g.dealt%len(g.deck)], nonce: g.rng.Uint64()}
	g.pos++
	g.dealt++
	return o
}

// derive expands a nonce into the i-th 32-byte value of a visit.
func derive(nonce uint64, i int) [32]byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], nonce)
	binary.LittleEndian.PutUint64(buf[8:], uint64(i))
	return sha256.Sum256(buf[:])
}

func secretValue(nonce uint64) string {
	v := derive(nonce, 0)
	return hex.EncodeToString(v[:16])
}

// rotated is the secret an update visit rotates.
const rotated = "s000"

// genPolicies builds one client's share of a workload's population. Size
// classes are dealt in exact proportion, then shuffled by the seed.
func genPolicies(sp spec, seed uint64, client, clients int, board policy.Board) []*policy.Policy {
	rng := newRNG(seed, fmt.Sprintf("%s/population/%d", sp.name, client))
	var n int
	for i := client; i < sp.policies; i += clients {
		n++
	}
	counts := make([]int, 0, n)
	for _, c := range sp.sizes {
		for i := 0; i < n*c.percent/100; i++ {
			counts = append(counts, c.secrets)
		}
	}
	for len(counts) < n {
		counts = append(counts, sp.sizes[0].secrets)
	}
	rng.Shuffle(n, func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })

	out := make([]*policy.Policy, n)
	for i := range out {
		p := &policy.Policy{
			Name:  fmt.Sprintf("%s-%08x-c%d-%04d", sp.name, uint32(rng.Uint64()), client, i),
			Board: board,
			Services: []policy.Service{{
				Name:       "app",
				Command:    "serve --gen 0 --token $$" + rotated,
				MREnclaves: []sgx.Measurement{appBinary.Measure()},
			}},
		}
		for s := 0; s < counts[i]; s++ {
			p.Secrets = append(p.Secrets, policy.Secret{
				Name:  fmt.Sprintf("s%03d", s),
				Type:  policy.SecretExplicit,
				Value: secretValue(rng.Uint64()),
			})
		}
		out[i] = p
	}
	return out
}
