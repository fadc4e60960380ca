package fleet

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAcrossBuilders(t *testing.T) {
	a, err := NewRing([]string{"shard-1", "shard-2", "shard-3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Same shards in a different order: servers and clients build their
	// rings independently and MUST agree on every key.
	b, err := NewRing([]string{"shard-3", "shard-1", "shard-2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("policy-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring builders disagree on %q: %q vs %q", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	r, err := NewRing([]string{"shard-1", "shard-2", "shard-3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Owner(fmt.Sprintf("policy-%d", i))]++
	}
	for _, name := range r.Shards() {
		if counts[name] == 0 {
			t.Fatalf("shard %s owns nothing across 3000 keys: %v", name, counts)
		}
		// With 64 vnodes the split should be in the same order of
		// magnitude; a shard below a tenth of its fair share means the
		// point distribution is broken.
		if counts[name] < 100 {
			t.Fatalf("shard %s owns only %d of 3000 keys: %v", name, counts[name], counts)
		}
	}
}

func TestRingOwnershipStableWhenEndpointsMove(t *testing.T) {
	// The ring hashes NAMES. Failover keeps the name and changes only the
	// endpoint, so ownership must be byte-identical before and after —
	// modeled here by simply rebuilding the ring from the same names.
	names := []string{"a", "b", "c", "d", "e"}
	r1, _ := NewRing(names, 32)
	r2, _ := NewRing(names, 32)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("ownership moved for %q", key)
		}
	}
}

func TestRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
}
