package topology

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnroutable is the sentinel wrapped by every routing or planning
// failure caused by faults severing the network: a pair of live nodes
// with no path through the live links, or a complete exchange requested
// on a fabric with dead nodes. Callers test it with errors.Is.
var ErrUnroutable = errors.New("unroutable: faults sever the network")

// Link names one undirected wire by its two adjacent endpoints. The two
// directed LinkSlot resources of the wire fail together: a dead link is
// dead in both directions, a slow link is slow in both.
type Link struct {
	A, B int
}

// canon returns the link with endpoints ordered A < B.
func (l Link) canon() Link {
	if l.B < l.A {
		l.A, l.B = l.B, l.A
	}
	return l
}

func (l Link) String() string { return fmt.Sprintf("%d-%d", l.A, l.B) }

// SlowLink is one wire running at reduced speed: transmissions crossing
// it take Factor times longer (Factor > 1).
type SlowLink struct {
	Link
	Factor float64
}

// FaultSet is the declarative fault state of one network: which nodes
// are down, which wires are severed, and which wires are slow. The zero
// value means fully healthy, and Overlay refuses it: a healthy fabric is
// its base network. Overlay canonicalizes a set (sorted, deduplicated,
// dead wires dominate slow entries), so two FaultSets describing the same
// faults yield the same HealthDigest.
type FaultSet struct {
	DeadNodes []int
	DeadLinks []Link
	SlowLinks []SlowLink
}

// Empty reports whether the set carries no faults at all.
func (fs FaultSet) Empty() bool {
	return len(fs.DeadNodes) == 0 && len(fs.DeadLinks) == 0 && len(fs.SlowLinks) == 0
}

// Clone returns a deep copy.
func (fs FaultSet) Clone() FaultSet {
	return FaultSet{
		DeadNodes: append([]int(nil), fs.DeadNodes...),
		DeadLinks: append([]Link(nil), fs.DeadLinks...),
		SlowLinks: append([]SlowLink(nil), fs.SlowLinks...),
	}
}

// canonicalize validates fs against base and returns the canonical form:
// nodes and link endpoints in range, link endpoints adjacent, slow
// factors > 1 and finite; everything sorted and deduplicated, slow
// entries for dead wires dropped (the dead wire dominates), duplicate
// slow entries collapsed to the worst factor.
func (fs FaultSet) canonicalize(base Network) (FaultSet, error) {
	var out FaultSet
	seenNode := make(map[int]bool)
	for _, p := range fs.DeadNodes {
		if !base.Contains(p) {
			return out, fmt.Errorf("topology: dead node %d not in %s", p, base.Name())
		}
		if !seenNode[p] {
			seenNode[p] = true
			out.DeadNodes = append(out.DeadNodes, p)
		}
	}
	sort.Ints(out.DeadNodes)

	checkLink := func(l Link, kind string) error {
		if !base.Contains(l.A) || !base.Contains(l.B) {
			return fmt.Errorf("topology: %s link %s not in %s", kind, l, base.Name())
		}
		if l.A == l.B || base.Distance(l.A, l.B) != 1 {
			return fmt.Errorf("topology: %s link %s: nodes are not adjacent in %s", kind, l, base.Name())
		}
		return nil
	}
	seenDead := make(map[Link]bool)
	for _, l := range fs.DeadLinks {
		l = l.canon()
		if err := checkLink(l, "dead"); err != nil {
			return out, err
		}
		if !seenDead[l] {
			seenDead[l] = true
			out.DeadLinks = append(out.DeadLinks, l)
		}
	}
	sort.Slice(out.DeadLinks, func(i, j int) bool {
		a, b := out.DeadLinks[i], out.DeadLinks[j]
		return a.A < b.A || (a.A == b.A && a.B < b.B)
	})

	slow := make(map[Link]float64)
	for _, sl := range fs.SlowLinks {
		l := sl.canon()
		if err := checkLink(l, "slow"); err != nil {
			return out, err
		}
		if !(sl.Factor > 1) || sl.Factor > 1e12 {
			return out, fmt.Errorf("topology: slow link %s factor %v (want a finite factor > 1)", l, sl.Factor)
		}
		if seenDead[l] {
			continue // a dead wire has no speed
		}
		if sl.Factor > slow[l] {
			slow[l] = sl.Factor
		}
	}
	for l, f := range slow {
		out.SlowLinks = append(out.SlowLinks, SlowLink{Link: l, Factor: f})
	}
	sort.Slice(out.SlowLinks, func(i, j int) bool {
		a, b := out.SlowLinks[i], out.SlowLinks[j]
		return a.A < b.A || (a.A == b.A && a.B < b.B)
	})
	return out, nil
}

// digest renders the canonical fault suffix: "!"-joined groups of dead
// nodes (dn), dead links (dl) and slow links (sl), empty for no faults.
// The format is part of the spec grammar — ParseSpec parses it back.
func (fs FaultSet) digest() string {
	var groups []string
	if len(fs.DeadNodes) > 0 {
		parts := make([]string, len(fs.DeadNodes))
		for i, p := range fs.DeadNodes {
			parts[i] = strconv.Itoa(p)
		}
		groups = append(groups, "dn="+strings.Join(parts, ","))
	}
	if len(fs.DeadLinks) > 0 {
		parts := make([]string, len(fs.DeadLinks))
		for i, l := range fs.DeadLinks {
			parts[i] = l.String()
		}
		groups = append(groups, "dl="+strings.Join(parts, ","))
	}
	if len(fs.SlowLinks) > 0 {
		parts := make([]string, len(fs.SlowLinks))
		for i, sl := range fs.SlowLinks {
			parts[i] = fmt.Sprintf("%s:%s", sl.Link, strconv.FormatFloat(sl.Factor, 'g', -1, 64))
		}
		groups = append(groups, "sl="+strings.Join(parts, ","))
	}
	return strings.Join(groups, "!")
}

// Degraded overlays a fault state on any Network: dead nodes, dead
// wires, and per-wire speed factors. It implements Network itself, so
// every layer above routing — the simulator, the cost model, the
// optimizer, the plan cache — prices and plans the degraded fabric
// through the same interface as a healthy one.
//
// An overlay always carries at least one fault. Routing is fault-aware: a
// pair whose dimension-ordered base route only crosses live links keeps
// that exact route, and a pair whose base route is broken detours over a
// breadth-first shortest path through the live graph, memoized per pair.
// When no live path exists, Route returns an error wrapping
// ErrUnroutable; AppendRoute — the allocation-free contract without an
// error return — panics with that error, so planning layers must gate on
// CheckOperational/Connected before replaying.
//
// Node labels are unchanged: Nodes(), Contains() and the LinkSlot space
// still describe the full fabric, with dead elements marked, not
// removed. A Degraded overlay is immutable after Overlay returns and
// safe for concurrent use — Resolve hands one out to every request that
// names the fabric; to change the fault state, build a new overlay from
// the base network. What it learns lazily it learns once: Connected and
// Diameter come from one derivation pass on first use (see derive for
// when the diameter is exact), detours are memoized per broken pair.
type Degraded struct {
	base   Network
	fs     FaultSet
	name   string
	digest string

	deadNode []bool          // nil when no dead nodes
	hopDown  []bool          // by base LinkSlot, both directions: wire dead or either endpoint dead; nil when neither occurs
	slowSlot map[int]float64 // by base LinkSlot, both directions; nil when no slow links
	maxSlow  float64

	detours sync.Map // int64(src)<<32 | dst → []int, only for broken base routes

	// The facts of the live graph, filled in by derive on first use.
	deriveOnce sync.Once
	connErr    error
	diam       int

	memo memo // Derived's values
}

var _ Network = (*Degraded)(nil)

func (d *Degraded) derived() *memo { return &d.memo }

// Overlay wraps base with the given fault set. The set is canonicalized
// and validated (see FaultSet.canonicalize); an empty set is an error —
// a fabric without faults is its base network — and so is wrapping an
// already degraded network: merge fault sets against the bare base
// instead, so the canonical digest stays unique.
func Overlay(base Network, fs FaultSet) (*Degraded, error) {
	if _, ok := base.(*Degraded); ok {
		return nil, fmt.Errorf("topology: cannot overlay faults on already degraded %s; overlay the base network", base.Name())
	}
	if fs.Empty() {
		return nil, fmt.Errorf("topology: no faults to overlay on %s; a healthy fabric is its base network", base.Name())
	}
	cfs, err := fs.canonicalize(base)
	if err != nil {
		return nil, err
	}
	d := &Degraded{base: base, fs: cfs, digest: cfs.digest()}
	d.name = base.Name() + "!" + d.digest
	if len(cfs.DeadNodes) > 0 {
		d.deadNode = make([]bool, base.Nodes())
		for _, p := range cfs.DeadNodes {
			d.deadNode[p] = true
		}
	}
	if len(cfs.DeadLinks) > 0 || len(cfs.DeadNodes) > 0 {
		d.hopDown = make([]bool, base.Nodes()*base.Degree())
		for _, l := range cfs.DeadLinks {
			d.hopDown[base.LinkSlot(l.A, l.B)] = true
			d.hopDown[base.LinkSlot(l.B, l.A)] = true
		}
		for _, p := range cfs.DeadNodes {
			for _, q := range base.Neighbors(p) {
				d.hopDown[base.LinkSlot(p, q)] = true
				d.hopDown[base.LinkSlot(q, p)] = true
			}
		}
	}
	if len(cfs.SlowLinks) > 0 {
		d.slowSlot = make(map[int]float64, 2*len(cfs.SlowLinks))
		d.maxSlow = 1
		for _, sl := range cfs.SlowLinks {
			d.slowSlot[base.LinkSlot(sl.A, sl.B)] = sl.Factor
			d.slowSlot[base.LinkSlot(sl.B, sl.A)] = sl.Factor
			if sl.Factor > d.maxSlow {
				d.maxSlow = sl.Factor
			}
		}
	}
	return d, nil
}

// Base returns the wrapped healthy network.
func (d *Degraded) Base() Network { return d.base }

// Faults returns a copy of the canonical fault set.
func (d *Degraded) Faults() FaultSet { return d.fs.Clone() }

// HealthDigest returns the canonical fault summary: the "!"-joined
// dn/dl/sl groups that also suffix Name(), never empty. Equal digests mean
// equal fault states; serving tiers key cached plans on it so a fault
// report invalidates exactly the affected entries.
func (d *Degraded) HealthDigest() string { return d.digest }

// Name returns the base spec with the canonical fault suffix
// ("torus-4x4!dl=0-1"). ParseSpec round-trips it.
func (d *Degraded) Name() string { return d.name }

// NodeAlive reports whether node p is up.
func (d *Degraded) NodeAlive(p int) bool { return d.deadNode == nil || !d.deadNode[p] }

// LinkAlive reports whether the directed link from → to (which must be
// adjacent) and both its endpoints are usable.
func (d *Degraded) LinkAlive(from, to int) bool {
	return d.hopDown == nil || !d.hopDown[d.base.LinkSlot(from, to)]
}

// SlowFactor returns the speed factor of the directed-link slot (as
// returned by LinkSlot): 1 for full-speed links, > 1 for slow ones. The
// simulator scales circuit durations by the worst factor on the route.
func (d *Degraded) SlowFactor(slot int) float64 {
	if f, ok := d.slowSlot[slot]; ok {
		return f
	}
	return 1
}

// HasSlowLinks reports whether any wire runs below full speed.
func (d *Degraded) HasSlowLinks() bool { return len(d.slowSlot) > 0 }

// MaxSlowFactor returns the worst per-wire speed factor (1 when none).
func (d *Degraded) MaxSlowFactor() float64 {
	if d.maxSlow < 1 {
		return 1
	}
	return d.maxSlow
}

// Nodes, Contains and the digit geometry describe the full label space —
// dead elements are marked, not removed.
func (d *Degraded) Nodes() int          { return d.base.Nodes() }
func (d *Degraded) Contains(p int) bool { return d.base.Contains(p) }
func (d *Degraded) NumDims() int        { return d.base.NumDims() }
func (d *Degraded) Dims() []int         { return d.base.Dims() }
func (d *Degraded) Stride(i int) int    { return d.base.Stride(i) }
func (d *Degraded) Degree() int         { return d.base.Degree() }

// Neighbors returns the live nodes reachable from p over live wires, in
// base dimension order; nil when p itself is down.
func (d *Degraded) Neighbors(p int) []int {
	if !d.NodeAlive(p) {
		return nil
	}
	all := d.base.Neighbors(p)
	out := all[:0]
	for _, q := range all {
		if d.LinkAlive(p, q) {
			out = append(out, q)
		}
	}
	return out
}

// LinkSlot keeps the base slot space.
func (d *Degraded) LinkSlot(from, to int) int { return d.base.LinkSlot(from, to) }

// detourKey packs an ordered pair into the memo key.
func detourKey(src, dst int) int64 { return int64(src)<<32 | int64(uint32(dst)) }

// routeClean reports whether every hop of route crosses a live wire and
// every node on it is alive.
func (d *Degraded) routeClean(route []int) bool {
	if d.hopDown == nil {
		return true
	}
	if !d.NodeAlive(route[0]) {
		return false
	}
	for i := 1; i < len(route); i++ {
		if d.hopDown[d.base.LinkSlot(route[i-1], route[i])] {
			return false
		}
	}
	return true
}

// detour returns the memoized BFS shortest path src→dst through the live
// graph, or an ErrUnroutable-wrapping error. Only pairs whose base route
// is broken reach here, so the memo stays proportional to the damage,
// not to n². The returned slice is shared and must not be mutated.
func (d *Degraded) detour(src, dst int) ([]int, error) {
	if v, ok := d.detours.Load(detourKey(src, dst)); ok {
		if v == nil {
			return nil, d.unroutable(src, dst)
		}
		return v.([]int), nil
	}
	// BFS over live neighbors in base dimension order: deterministic,
	// shortest, and biased toward the base dimension-ordered style.
	n := d.base.Nodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int32(src)
	queue := []int{src}
	found := false
	for len(queue) > 0 && !found {
		p := queue[0]
		queue = queue[1:]
		for _, q := range d.Neighbors(p) {
			if parent[q] != -1 {
				continue
			}
			parent[q] = int32(p)
			if q == dst {
				found = true
				break
			}
			queue = append(queue, q)
		}
	}
	if !found {
		d.detours.Store(detourKey(src, dst), nil)
		return nil, d.unroutable(src, dst)
	}
	var rev []int
	for v := dst; ; v = int(parent[v]) {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	route := make([]int, len(rev))
	for i, v := range rev {
		route[len(rev)-1-i] = v
	}
	d.detours.Store(detourKey(src, dst), route)
	return route, nil
}

func (d *Degraded) unroutable(src, dst int) error {
	return fmt.Errorf("topology: %d→%d in %s: %w", src, dst, d.name, ErrUnroutable)
}

// routeFor resolves the fault-aware route src→dst into buf: the base
// dimension-ordered route when it is fully live, the memoized BFS detour
// otherwise.
func (d *Degraded) routeFor(buf []int, src, dst int) ([]int, error) {
	buf = d.base.AppendRoute(buf, src, dst)
	if d.routeClean(buf) {
		return buf, nil
	}
	if !d.NodeAlive(src) || !d.NodeAlive(dst) {
		return buf, fmt.Errorf("topology: %d→%d in %s: dead endpoint: %w", src, dst, d.name, ErrUnroutable)
	}
	det, err := d.detour(src, dst)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], det...), nil
}

// Route returns the fault-aware route from src to dst, or an error
// wrapping ErrUnroutable when the faults sever the pair.
func (d *Degraded) Route(src, dst int) ([]int, error) {
	if !d.Contains(src) || !d.Contains(dst) {
		return nil, fmt.Errorf("topology: route %d→%d outside %s", src, dst, d.name)
	}
	return d.routeFor(nil, src, dst)
}

// AppendRoute is the allocation-free form; unroutable pairs panic with
// the ErrUnroutable-wrapping error, so replay layers must run behind a
// Connected/CheckOperational gate (the planners do).
func (d *Degraded) AppendRoute(buf []int, src, dst int) []int {
	out, err := d.routeFor(buf, src, dst)
	if err != nil {
		panic(err)
	}
	return out
}

// AppendRouteSlots appends the slots of the fault-aware route: the base
// walk when every hop of it is usable, the memoized detour otherwise.
// Unroutable pairs panic like AppendRoute.
func (d *Degraded) AppendRouteSlots(buf []int, src, dst int) []int {
	mark := len(buf)
	buf = d.base.AppendRouteSlots(buf, src, dst)
	clean := true
	if d.hopDown != nil {
		for _, slot := range buf[mark:] {
			if d.hopDown[slot] {
				clean = false
				break
			}
		}
	}
	if clean {
		return buf
	}
	// A broken base route is rare and its detour is memoized as nodes;
	// resolve it the way AppendRoute does and convert hop by hop.
	route := d.AppendRoute(nil, src, dst)
	buf = buf[:mark]
	for i := 0; i+1 < len(route); i++ {
		buf = append(buf, d.base.LinkSlot(route[i], route[i+1]))
	}
	return buf
}

// Distance returns the fault-aware routed hop count. Unroutable pairs
// panic like AppendRoute; gate on Connected/CheckOperational first.
func (d *Degraded) Distance(a, b int) int {
	if a == b {
		return 0
	}
	buf := d.base.AppendRoute(make([]int, 0, 16), a, b)
	if d.routeClean(buf) {
		return len(buf) - 1
	}
	det, err := d.detour(a, b)
	if err != nil {
		panic(err)
	}
	return len(det) - 1
}

// RouteMetrics returns the fault-aware routed hop count and the worst
// per-wire slow factor along that route (1 when it only crosses
// full-speed links). Unlike Distance it reports severed pairs as an
// error — the form the cost model uses.
func (d *Degraded) RouteMetrics(src, dst int) (dist int, slow float64, err error) {
	slow = 1
	if src == dst {
		return 0, 1, nil
	}
	route, err := d.routeFor(make([]int, 0, 16), src, dst)
	if err != nil {
		return 0, 1, err
	}
	if d.slowSlot != nil {
		for i := 0; i+1 < len(route); i++ {
			if f := d.SlowFactor(d.base.LinkSlot(route[i], route[i+1])); f > slow {
				slow = f
			}
		}
	}
	return len(route) - 1, slow, nil
}

// maxExactMetricNodes bounds the network size for which Diameter is
// computed exactly over the live graph; a larger overlay with dead
// elements falls back to a documented estimate (serving tiers never ask
// beyond reports and barrier weights).
const maxExactMetricNodes = 4096

// derive computes, once per overlay, the two facts that depend on the live
// graph as a whole: connectivity and the diameter. An overlay with no dead
// node or wire — slow wires only — has its base's graph and takes the
// base's diameter without a traversal. Otherwise the live graph is laid
// out once as flat adjacency, a walk from the first live node settles
// connectivity, and up to maxExactMetricNodes an all-sources
// breadth-first search takes the diameter as an integer maximum: exact,
// and independent of how the sources were split. Beyond that size the
// diameter is the base's plus two hops of detour per dead wire, a dead
// node counting as the wires it takes down — an estimate (a ring cut open
// exceeds it) used only as the global-sync weight, consistently by the
// model and the simulator, which see the same Network.
func (d *Degraded) derive() {
	defer noteDerivation(time.Now())
	d.diam = d.base.Diameter()
	if d.hopDown == nil {
		return
	}
	g, dropped := d.liveGraph()
	n := d.base.Nodes()
	live, first := n-len(d.fs.DeadNodes), 0
	for first < n && !d.NodeAlive(first) {
		first++
	}
	if live == 0 {
		d.diam = 0
		return
	}
	if reached, _ := g.walk(first, make([]int32, n), make([]int32, n)); reached != live {
		d.connErr = fmt.Errorf("topology: %s: %d of %d live nodes unreachable: %w",
			d.name, live-reached, live, ErrUnroutable)
	}
	if n > maxExactMetricNodes {
		d.diam += dropped
		return
	}
	d.diam = g.allPairs(d.deadNode)
}

// liveGraph is the live part of a degraded fabric as flat adjacency: node
// p's live neighbours, in base dimension order, are adj[off[p]:off[p+1]]
// (none for a dead p).
type liveGraph struct {
	off, adj []int32
}

// liveGraph also returns how many of the base's adjacency entries it
// dropped: the directed links the faults take down, two per dead wire.
func (d *Degraded) liveGraph() (liveGraph, int) {
	n := d.base.Nodes()
	g := liveGraph{off: make([]int32, n+1), adj: make([]int32, 0, n*d.base.Degree())}
	dropped := 0
	for p := 0; p < n; p++ {
		for _, q := range d.base.Neighbors(p) {
			if d.hopDown[d.base.LinkSlot(p, q)] {
				dropped++
			} else {
				g.adj = append(g.adj, int32(q))
			}
		}
		g.off[p+1] = int32(len(g.adj))
	}
	return g, dropped
}

// walk searches breadth-first from s, in dist and queue (scratch, one
// entry per node), and returns the nodes reached (s included) and the
// greatest distance.
func (g liveGraph) walk(s int, dist, queue []int32) (reached, far int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[s], queue[0] = 0, int32(s)
	head, tail := 0, 1
	for ; head < tail; head++ {
		p := queue[head]
		next := dist[p] + 1
		for _, q := range g.adj[g.off[p]:g.off[p+1]] {
			if dist[q] < 0 {
				dist[q], queue[tail] = next, q
				tail++
			}
		}
	}
	return tail, int(dist[queue[tail-1]])
}

// allPairs walks from every live source — dealt from a shared cursor to
// GOMAXPROCS workers, the caller being one — and returns the greatest
// distance.
func (g liveGraph) allPairs(dead []bool) (far int) {
	n := len(g.off) - 1
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		dist, queue := make([]int32, n), make([]int32, n)
		wFar := 0
		for s := int(cursor.Add(1)) - 1; s < n; s = int(cursor.Add(1)) - 1 {
			if dead == nil || !dead[s] {
				_, f := g.walk(s, dist, queue)
				wFar = max(wFar, f)
			}
		}
		mu.Lock()
		far = max(far, wFar)
		mu.Unlock()
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for i := 1; i < workers; i++ {
		go work()
	}
	work()
	wg.Wait()
	return far
}

// Diameter returns the maximum distance over live routable pairs: exact
// up to maxExactMetricNodes, an estimate beyond (see derive).
func (d *Degraded) Diameter() int {
	d.deriveOnce.Do(d.derive)
	return d.diam
}

// Connected reports (as nil) whether every pair of live nodes is
// routable over the live links; a severed partition returns an error
// wrapping ErrUnroutable.
func (d *Degraded) Connected() error {
	d.deriveOnce.Do(d.derive)
	return d.connErr
}

// Operational reports (as nil) whether the fabric can host a complete
// exchange: every node alive and the live graph connected. A dead node
// or a severed partition returns an error wrapping ErrUnroutable — the
// signal the serving tier's graceful-degradation path keys on.
func (d *Degraded) Operational() error {
	if len(d.fs.DeadNodes) > 0 {
		return fmt.Errorf("topology: %s: %d dead node(s), complete exchange impossible: %w",
			d.name, len(d.fs.DeadNodes), ErrUnroutable)
	}
	return d.Connected()
}

// CheckOperational reports whether net can host a complete exchange:
// plain networks always can; a Degraded overlay must have no dead nodes
// and a connected live graph. The error wraps ErrUnroutable.
func CheckOperational(net Network) error {
	if d, ok := net.(*Degraded); ok {
		return d.Operational()
	}
	return nil
}

// HealthDigestOf returns the canonical health digest of any network:
// "ok" for plain (always healthy) networks, the overlay's digest for
// degraded ones.
func HealthDigestOf(net Network) string {
	if d, ok := net.(*Degraded); ok {
		return d.HealthDigest()
	}
	return "ok"
}

// SplitSpec splits a (possibly degraded) spec or Name() string into the
// base spec and the fault digest ("" when none). It is purely textual —
// no validation.
func SplitSpec(spec string) (base, digest string) {
	base, digest, _ = strings.Cut(spec, "!")
	return base, digest
}

// parseFaultDigest parses the "!"-joined dn/dl/sl groups of a degraded
// spec suffix into a FaultSet.
func parseFaultDigest(digest string) (FaultSet, error) {
	var fs FaultSet
	parseLink := func(s string) (Link, error) {
		as, bs, ok := strings.Cut(s, "-")
		if !ok {
			return Link{}, fmt.Errorf("bad link %q (want a-b)", s)
		}
		a, err1 := strconv.Atoi(as)
		b, err2 := strconv.Atoi(bs)
		if err1 != nil || err2 != nil {
			return Link{}, fmt.Errorf("bad link %q (want a-b)", s)
		}
		return Link{A: a, B: b}, nil
	}
	for _, group := range strings.Split(digest, "!") {
		key, val, ok := strings.Cut(group, "=")
		if !ok || val == "" {
			return fs, fmt.Errorf("bad fault group %q (want dn=…, dl=… or sl=…)", group)
		}
		switch key {
		case "dn":
			for _, s := range strings.Split(val, ",") {
				p, err := strconv.Atoi(s)
				if err != nil {
					return fs, fmt.Errorf("bad dead node %q", s)
				}
				fs.DeadNodes = append(fs.DeadNodes, p)
			}
		case "dl":
			for _, s := range strings.Split(val, ",") {
				l, err := parseLink(s)
				if err != nil {
					return fs, err
				}
				fs.DeadLinks = append(fs.DeadLinks, l)
			}
		case "sl":
			for _, s := range strings.Split(val, ",") {
				ls, factor, ok := strings.Cut(s, ":")
				if !ok {
					return fs, fmt.Errorf("bad slow link %q (want a-b:factor)", s)
				}
				l, err := parseLink(ls)
				if err != nil {
					return fs, err
				}
				f, err := strconv.ParseFloat(factor, 64)
				if err != nil {
					return fs, fmt.Errorf("bad slow factor %q", factor)
				}
				fs.SlowLinks = append(fs.SlowLinks, SlowLink{Link: l, Factor: f})
			}
		default:
			return fs, fmt.Errorf("bad fault group %q (want dn=…, dl=… or sl=…)", group)
		}
	}
	return fs, nil
}
