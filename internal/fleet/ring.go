// Package fleet implements the distributed sweep fabric: consistent-hash
// scatter of a sweep's points across a fleet of regsimd backends, gather
// and byte-stable merge of the partial results, hedged re-dispatch of
// straggler partitions, and fleet-wide durable-store lookup (a point's
// ring owner is also the node whose store shard holds its cached result,
// because both use the same sim.Fingerprint canonicalization).
//
// internal/serve layers it behind POST /v1/sweep when regsimd runs with
// -peers: the node a client submits to is the gateway, executing its
// owned points locally and proxying the rest.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"regcache/internal/store"
)

// replicas is the virtual-node count per endpoint. 64 vnodes keep the
// expected ownership imbalance across a handful of nodes in the low
// single-digit percent while the ring stays a few-KiB sorted slice.
const replicas = 64

// Ring is an immutable consistent-hash ring over endpoint URLs. Ownership
// depends only on the set of endpoint strings (not their order), so every
// node and client configured with the same fleet computes the same owner
// for every point.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct endpoints, sorted (for deterministic iteration)
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given endpoints, replicas vnodes per
// endpoint. Duplicate endpoints collapse. An empty endpoint list yields a
// ring that owns nothing.
func NewRing(endpoints []string) *Ring {
	seen := make(map[string]bool, len(endpoints))
	r := &Ring{}
	for _, ep := range endpoints {
		if ep == "" || seen[ep] {
			continue
		}
		seen[ep] = true
		r.nodes = append(r.nodes, ep)
	}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*replicas)
	var buf [8]byte
	for _, ep := range r.nodes {
		for i := 0; i < replicas; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(i))
			h := sha256.Sum256(append([]byte(ep+"#"), buf[:]...))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(h[:8]), node: ep})
		}
	}
	sort.Slice(r.points, func(i, k int) bool {
		if r.points[i].hash != r.points[k].hash {
			return r.points[i].hash < r.points[k].hash
		}
		return r.points[i].node < r.points[k].node
	})
	return r
}

// Nodes returns the distinct endpoints on the ring, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// keyHash positions a store fingerprint on the ring. The fingerprint is
// already a SHA-256, so its leading bytes are uniform.
func keyHash(k store.Key) uint64 { return binary.BigEndian.Uint64(k[:8]) }

// Owner returns the endpoint owning key: the first vnode clockwise from
// the key's position. An empty ring returns "".
func (r *Ring) Owner(k store.Key) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(k)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Successors returns up to n distinct endpoints in clockwise ring order
// starting at the key's owner — the dispatch preference order for the
// key's partition (owner first, then the hedge/failover candidates).
func (r *Ring) Successors(k store.Key, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := keyHash(k)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
