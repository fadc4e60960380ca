// Package fleet shards PALÆMON across multiple instances (DESIGN.md §14):
// a consistent-hash ring over shard names routes every policy-addressed
// operation to its owner shard, each shard streams its committed WAL to a
// follower that chain-verifies before applying, and a signed discovery
// document tells clients where the shards are. The failure drill the
// package exists for: kill a shard's primary under load, promote its
// follower, bump the document epoch — and no acknowledged write is lost.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard when a fleet does not
// choose one. 64 points per shard keeps the ownership split within a few
// percent of even for small fleets while the ring stays tiny.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over shard NAMES. Names, not endpoints:
// failover replaces a shard's endpoint but keeps its name, so promotion
// moves zero policies between shards. The ring is immutable after
// NewRing — topology changes build a new ring and swap it.
type Ring struct {
	points []ringPoint
	names  []string
}

type ringPoint struct {
	hash  uint64
	shard int // index into names
}

// NewRing builds the ring: vnodes points per shard, each at
// sha256(name + "#" + i) truncated to its first 8 bytes (big endian).
// Both servers and clients MUST use the same vnodes value (carried in the
// discovery document) or they disagree about ownership.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	names := append([]string(nil), shards...)
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", names[i])
		}
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(names)*vnodes),
		names:  names,
	}
	for si, name := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(fmt.Sprintf("%s#%d", name, i)),
				shard: si,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on name so colliding points still order identically
		// on every builder of the ring.
		return r.names[r.points[a].shard] < r.names[r.points[b].shard]
	})
	return r, nil
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Shards returns the shard names on the ring, sorted.
func (r *Ring) Shards() []string { return append([]string(nil), r.names...) }

// Owner returns the shard owning the given policy name: the first ring
// point at or clockwise of sha256(policy).
func (r *Ring) Owner(policy string) string {
	h := ringHash(policy)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point owns the top arc
	}
	return r.names[r.points[i].shard]
}
