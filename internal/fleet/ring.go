// Package fleet is the placement and membership layer of the sharded
// rocksimd tier: a consistent-hash ring (virtual nodes) over the
// content-addressed cell cache key, plus a health monitor that ejects
// and re-probes failing shards.
//
// Placement is deterministic: the same key on the same membership
// always lands on the same shard, so every router in front of the
// fleet agrees where a cell's cache entry lives and a popular cell is
// computed once per fleet, not once per node. Membership changes move
// only the keys they must: removing a shard re-homes exactly the keys
// it owned, and adding one steals ≈K/N of the keyspace — the ring
// tests pin both bounds.
package fleet

import (
	"hash/fnv"
	"sort"
	"sync"
)

// vnodes is the virtual-node count per member: enough to bound
// placement skew across a handful of shards without making membership
// changes expensive. It is fixed, not a knob: every router in front of
// the fleet (rockgate, rockload -targets) must place keys identically,
// so a per-process count could only break that agreement.
const vnodes = 128

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring. Safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	points []point // sorted by hash
	member map[string]bool
}

// NewRing builds a ring over members.
func NewRing(members ...string) *Ring {
	r := &Ring{member: make(map[string]bool)}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// vnodeHash spreads a member's virtual nodes over the ring: FNV of the
// member name seeded into a splitmix64 finalizer per index. Hashing the
// concatenated "name#i" string directly clusters badly for short names
// (FNV mixes too little of the trailing index byte); the finalizer's
// avalanche gives near-uniform points regardless of name shape.
func vnodeHash(m string, i int) uint64 {
	h := hashKey(m) + uint64(i)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Add inserts a member (idempotent).
func (r *Ring) Add(m string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[m] {
		return
	}
	r.member[m] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, point{hash: vnodeHash(m, i), member: m})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a member (idempotent). Keys owned by the removed
// member re-home to their successors; every other key keeps its owner.
func (r *Ring) Remove(m string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[m] {
		return
	}
	delete(r.member, m)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != m {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members in ring order starting at
// key's position: the owner first, then the failover successors. This
// is the router's retry order when a shard is ejected mid-request.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
