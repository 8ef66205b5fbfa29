// Package router fronts N serve.Server replicas with a prefix-affinity
// request router: requests are routed by consistent-hashing their
// page-aligned prompt-prefix chunks, so prompts that share a prefix land
// on the same replica and concentrate that replica's model.PrefixCache
// hits — a sharded prefix cache without any cross-replica KV traffic.
// Residual load (unique prompts, hot shards) spills to the least-loaded
// healthy replica by live queue depth and KV occupancy; failed replicas
// are drained out of the hash ring and requests fail over, with outputs
// bit-identical to a no-failure run because per-request decoding is
// deterministic on every replica.
//
// Backends are pluggable: InProc wraps a *serve.Server in the same
// process; HTTPBackend speaks the JSON API that Handler serves (the
// cmd/tenderserve API), so the same router fronts a multi-process
// deployment unchanged.
//
// See docs/ARCHITECTURE.md ("Multi-replica sharded serving") for the
// ring diagram, the affinity/spill decision flow and the failover
// sequence.
package router

import (
	"sort"
	"strconv"
)

// fnv1a64 over a byte — the ring and affinity keys both build on this.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnvToken folds one prompt token into the hash, LSB-first over its
// 8-byte little-endian form, so the key is a pure function of the token
// values (not of any in-memory representation).
func fnvToken(h uint64, tok int) uint64 {
	v := uint64(tok)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

// AffinityKey hashes the prompt's page-aligned prefix chunks: the first
// maxChunks full pages of tokens (fewer when the prompt is shorter). Two
// prompts that share their leading pages — the unit model.PrefixCache
// indexes by — get the same key no matter how their tails differ, so the
// ring sends them to the same replica. Prompts shorter than one page
// hash all their tokens: with nothing page-aligned to share, per-prompt
// scatter is the best balance.
func AffinityKey(prompt []int, pageRows, maxChunks int) uint64 {
	if pageRows <= 0 {
		pageRows = 1
	}
	if maxChunks <= 0 {
		maxChunks = 1
	}
	aligned := len(prompt) - len(prompt)%pageRows
	if aligned > maxChunks*pageRows {
		aligned = maxChunks * pageRows
	}
	if aligned == 0 {
		aligned = len(prompt)
	}
	h := uint64(fnvOffset64)
	for _, tok := range prompt[:aligned] {
		h = fnvToken(h, tok)
	}
	return h
}

// ScatterKey hashes the whole prompt, unique tail included — the
// anti-affinity baseline. Same-prefix requests scatter across replicas,
// which is exactly the cache-splitting behaviour router-random rows
// quantify.
func ScatterKey(prompt []int) uint64 {
	h := uint64(fnvOffset64)
	for _, tok := range prompt {
		h = fnvToken(h, tok)
	}
	return h
}

// Ring is an immutable consistent-hash ring over replica ids with
// virtual nodes: each id owns VNodes points on the ring, a key is owned
// by the first point clockwise from its hash. Adding or removing one
// replica moves only the keys adjacent to its points — the property that
// keeps most prefix→replica assignments (and therefore most cached
// prefixes) stable across membership changes. The router swaps in a
// rebuilt Ring on every membership change; routing reads are lock-free.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring over ids with vnodes points each (default 64).
// A nil or empty id list yields an empty ring (Owner returns "").
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{points: make([]ringPoint, 0, len(ids)*vnodes)}
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			h := fnvString(fnvOffset64, id)
			h = fnvByte(h, '#')
			h = fnvString(h, strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by id so the ring is a pure function of membership.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Owner returns the replica id owning key, or "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// OwnerExcluding walks clockwise from key past points owned by excluded
// ids and returns the first other owner — where a key lands after its
// owner leaves the ring, without rebuilding it. Returns "" when every
// replica is excluded.
func (r *Ring) OwnerExcluding(key uint64, excluded map[string]bool) string {
	if len(r.points) == 0 {
		return ""
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for off := 0; off < len(r.points); off++ {
		p := r.points[(start+off)%len(r.points)]
		if !excluded[p.id] {
			return p.id
		}
	}
	return ""
}

// Members returns the distinct ids on the ring, sorted.
func (r *Ring) Members() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.points {
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	sort.Strings(out)
	return out
}
