package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"regcache/internal/store"
)

// testKey derives a distinct, deterministic store.Key from an index.
func testKey(i int) store.Key {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	return sha256.Sum256(buf[:])
}

func TestRingOwnerIgnoresEndpointOrder(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b"})
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: owner differs by construction order: %q vs %q", i, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingOwnerStableAcrossRebuilds(t *testing.T) {
	eps := []string{"http://a", "http://b", "http://c"}
	a, b := NewRing(eps), NewRing(eps)
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: nondeterministic ownership", i)
		}
	}
}

func TestRingDedupesAndSortsNodes(t *testing.T) {
	r := NewRing([]string{"http://b", "http://a", "http://b", ""})
	nodes := r.Nodes()
	if len(nodes) != 2 || nodes[0] != "http://a" || nodes[1] != "http://b" {
		t.Fatalf("nodes = %v, want deduped sorted [http://a http://b]", nodes)
	}
}

func TestRingBalance(t *testing.T) {
	eps := []string{"http://a", "http://b", "http://c"}
	r := NewRing(eps)
	counts := make(map[string]int)
	const keys = 12000
	for i := 0; i < keys; i++ {
		counts[r.Owner(testKey(i))]++
	}
	// With 64 vnodes per node, shares should sit near keys/3; accept a
	// generous 2x band so the test pins gross imbalance, not variance.
	lo, hi := keys/6, keys/3*2
	for _, ep := range eps {
		if c := counts[ep]; c < lo || c > hi {
			t.Errorf("node %s owns %d of %d keys, want within [%d, %d]", ep, c, keys, lo, hi)
		}
	}
}

func TestRingSuccessors(t *testing.T) {
	eps := []string{"http://a", "http://b", "http://c"}
	r := NewRing(eps)
	for i := 0; i < 200; i++ {
		k := testKey(i)
		succ := r.Successors(k, len(eps))
		if len(succ) != len(eps) {
			t.Fatalf("key %d: %d successors, want %d", i, len(succ), len(eps))
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("key %d: successors[0] = %q, owner = %q", i, succ[0], r.Owner(k))
		}
		seen := make(map[string]bool)
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %d: duplicate successor %q", i, s)
			}
			seen[s] = true
		}
	}
	// Asking for more nodes than exist clamps; asking for fewer truncates.
	if got := r.Successors(testKey(0), 10); len(got) != 3 {
		t.Fatalf("over-ask: %d successors, want 3", len(got))
	}
	if got := r.Successors(testKey(0), 1); len(got) != 1 || got[0] != r.Owner(testKey(0)) {
		t.Fatalf("n=1: %v, want just the owner", got)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := r.Owner(testKey(1)); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if got := r.Successors(testKey(1), 3); got != nil {
		t.Fatalf("empty ring successors = %v, want nil", got)
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r := NewRing([]string{"http://only"})
	for i := 0; i < 100; i++ {
		if got := r.Owner(testKey(i)); got != "http://only" {
			t.Fatalf("key %d owned by %q", i, got)
		}
	}
}
