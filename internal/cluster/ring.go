// Package cluster turns N pland replicas into one logical plan cache.
//
// A consistent-hash ring with virtual nodes assigns every plan-cache
// line key — the digest-carrying (machine, topology name) pair — to an
// owner replica. On a local miss for a line whose build costs more than
// the hop (plancache decides: simulated or faulted lines) a non-owner
// first fetches the line from its owner over the internal /v1/peer/line
// endpoint, guarded by a per-attempt deadline, bounded retries with
// exponential backoff and jitter, and a per-peer circuit breaker
// (consecutive-failure trip, half-open probes); only when that fails
// does it fall back to a local singleflight build. A dead or slow peer
// must never make a request fail — only cost more.
//
// Membership is a static peer list; the breaker is the only judge of a
// peer's health (its state is surfaced on /metrics and /readyz, and a
// peer is reported up unless its breaker is open). On startup a replica
// warm-fetches the lines it owns from every peer once (snapshot fan-out
// over /v1/peer/snapshot), and fault-set updates are forwarded
// best-effort to every peer whose breaker admits them, so digest-keyed
// invalidation stays fleet-consistent.
//
// The idiom follows Kohring's implicit simulations over messaging
// protocols: the paper's compute-once tables served over real IP
// messaging, where peers are slow, lossy, and restartable — so every
// cross-replica hop carries a deadline, a retry budget, and a local
// fallback rather than trust.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-member virtual-node count. 64 points
// per member keeps the ownership split of a small static fleet within a
// few percent of even while the ring stays tiny (3 replicas = 192
// points, one binary search per key).
const DefaultVirtualNodes = 64

// LineKey is the canonical ring key for one plan-cache line. Every
// layer — peer fetch, warm fan-out, the load generator's owner report —
// must hash the same bytes, so the composition lives here.
func LineKey(machine, topo string) string {
	return machine + "\x1f" + topo
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash  uint64
	owner int // index into members
}

// Ring is an immutable consistent-hash ring over a static member set.
// Construction sorts and dedups the members, so every replica that was
// given the same URL set — in any order — builds the identical ring and
// computes the identical owner for every key.
type Ring struct {
	members []string
	points  []ringPoint
}

// NewRing builds a ring over the given members with vnodes virtual
// nodes each (DefaultVirtualNodes when vnodes <= 0). Members are
// deduplicated; an empty member set is an error.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", m, v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Hash collisions between virtual nodes are astronomically rare
		// but must still order deterministically across replicas.
		return p.owner < q.owner
	})
	return r, nil
}

// Members returns the sorted, deduplicated member set.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's hash position.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is a circle
	}
	return r.members[r.points[i].owner]
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 avalanche finalizer. FNV-1a alone is not
// enough here: virtual-node labels differ only in a trailing counter
// ("host#0", "host#1", …), and FNV maps such strings to hashes that
// agree in nearly all high bits — every virtual node of a member
// collapses into one arc and the ring degenerates to one giant range
// per member. The finalizer avalanches every input bit across the
// word, spreading the points (and the keys) over the whole circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
