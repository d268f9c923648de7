package topology

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxHandles and maxAliases bound the handle table — specs arrive from
// sockets. A serving tier names a few dozen fabrics; an overlay handle
// retains Nodes·Degree bytes of fault marks plus its detour memo.
const (
	maxHandles = 256
	maxAliases = 1024
)

// handles is the process-wide spec → Network table behind Resolve: one
// shared handle per fabric, found under its canonical Name() or under any
// other spelling a caller has used for it.
var handles = struct {
	mu     sync.RWMutex
	byName map[string]Network
	alias  map[string]Network

	hits, misses, evictions  atomic.Int64
	derivations, deriveNanos atomic.Int64
}{byName: make(map[string]Network), alias: make(map[string]Network)}

// Resolve is ParseSpec through the handle table: every spelling of a
// fabric — case and whitespace variants, permuted or redundant fault
// digests — resolves to one shared, immutable Network, so what a handle
// derives lazily (an overlay's live-graph facts and detours, a grid's
// digit table) is derived once per process, not once per request, and
// Resolve(n.Name()) is n for every n it returned. A spelling seen before
// costs a map read and no allocation; a new one is parsed and filed under
// its canonical name. Errors are never cached. When the table is full an
// arbitrary entry makes room; an evicted handle stays valid for whoever
// holds it.
func Resolve(spec string) (Network, error) {
	t := &handles
	t.mu.RLock()
	net, ok := t.byName[spec]
	if !ok {
		net, ok = t.alias[spec]
	}
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
		return net, nil
	}
	t.misses.Add(1)
	parsed, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	name := parsed.Name()

	t.mu.Lock()
	defer t.mu.Unlock()
	net, ok = t.byName[name]
	if !ok {
		for old, evicted := range t.byName {
			if len(t.byName) < maxHandles {
				break
			}
			delete(t.byName, old)
			for sp, n := range t.alias {
				if n == evicted {
					delete(t.alias, sp)
				}
			}
			t.evictions.Add(1)
		}
		net = parsed
		t.byName[name] = net
	}
	if spec != name {
		for old := range t.alias {
			if len(t.alias) < maxAliases {
				break
			}
			delete(t.alias, old)
		}
		// The caller's string may be a slice of a request body.
		t.alias[strings.Clone(spec)] = net
	}
	return net, nil
}

// TableStats is a snapshot of the handle table's counters, in the wire
// form the serving tier's /metrics carries.
type TableStats struct {
	Handles   int   `json:"handles" prom:"pland_topology_handles,gauge" help:"Fabrics resident in the shared handle table."`
	Hits      int64 `json:"resolve_hits_total" prom:"pland_topology_resolve_hits_total,counter" help:"Topology specs answered by a resident handle."`
	Misses    int64 `json:"resolve_misses_total" prom:"pland_topology_resolve_misses_total,counter" help:"Topology specs that had to be parsed."`
	Evictions int64 `json:"resolve_evictions_total" prom:"pland_topology_resolve_evictions_total,counter" help:"Handles dropped to keep the table within its bound."`
	// Derivations counts overlays resolved or built directly.
	Derivations  int64 `json:"derivations_total" prom:"pland_topology_derivations_total,counter" help:"Degraded overlays whose live-graph facts were derived."`
	DeriveMicros int64 `json:"derive_us_total" prom:"pland_topology_derive_us_total,counter" help:"Microseconds spent in those derivations."`
}

// ResolveStats returns the handle table's counters.
func ResolveStats() TableStats {
	t := &handles
	t.mu.RLock()
	n := len(t.byName)
	t.mu.RUnlock()
	return TableStats{
		Handles:      n,
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		Evictions:    t.evictions.Load(),
		Derivations:  t.derivations.Load(),
		DeriveMicros: t.deriveNanos.Load() / 1e3,
	}
}

// noteDerivation counts one overlay derivation begun at start.
func noteDerivation(start time.Time) {
	handles.derivations.Add(1)
	handles.deriveNanos.Add(int64(time.Since(start)))
}
