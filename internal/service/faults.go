package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/plancache"
	"repro/internal/topology"
)

// FaultsRequest is the POST /v1/faults wire format. Topology names the
// base fabric the operation applies to ("torus-4x4" — a spec that
// already carries a fault digest is rejected; fault state is owned by
// the server, not spliced into specs). Links are endpoint pairs that
// must be adjacent in the base topology.
type FaultsRequest struct {
	Topology string `json:"topology"`
	// Action is one of:
	//   down     mark Links and Nodes dead
	//   slow     mark Links degraded by Factor (> 1)
	//   restore  return Links and Nodes to healthy
	//   clear    drop the fabric's whole fault set
	Action string   `json:"action"`
	Links  [][2]int `json:"links,omitempty"`
	Nodes  []int    `json:"nodes,omitempty"`
	Factor float64  `json:"factor,omitempty"`
}

// FaultsResponse reports the fabric's fault state after the operation.
type FaultsResponse struct {
	Topology string `json:"topology"`
	// Health is the canonical fault digest ("ok" when healthy); plans
	// for this fabric are cached under topology + "!" + Health.
	Health string `json:"health"`
	// Operational reports whether the degraded fabric can still host a
	// complete exchange (every node alive, live graph connected). A
	// non-operational fabric serves last-known-good plans flagged
	// degraded until restored.
	Operational bool     `json:"operational"`
	DeadNodes   []int    `json:"dead_nodes,omitempty"`
	DeadLinks   []string `json:"dead_links,omitempty"`
	SlowLinks   []string `json:"slow_links,omitempty"`
	// Invalidated counts cache lines retired because their fault digest
	// was superseded by this update.
	Invalidated int `json:"invalidated_lines"`
	// Forwarded/ForwardFailed count the best-effort fan-out of this
	// update to cluster peers (absent on a standalone daemon and on
	// forwarded copies, which are never re-forwarded).
	Forwarded     int `json:"forwarded_peers,omitempty"`
	ForwardFailed int `json:"forward_failed_peers,omitempty"`
}

// handleFaults mutates one fabric's fault set. The canonicalized set is
// stored under the base topology name; plan requests for that base are
// transparently re-planned on the degraded overlay, and cache lines
// keyed under a superseded digest are retired (the bare line survives
// as last-known-good material).
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) int {
	var req FaultsRequest
	if code := decodeBody(w, r, &req); code != 0 {
		return code
	}
	if req.Topology == "" {
		return writeError(w, http.StatusBadRequest, "missing required field \"topology\"")
	}
	base, err := s.resolveTopo(req.Topology, 0, s.cfg.PlanMaxDim)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	if _, isDeg := base.(*topology.Degraded); isDeg {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("topology %q carries a fault digest; address the base fabric and use actions to change fault state", req.Topology))
	}
	name := base.Name()
	links := make([]topology.Link, 0, len(req.Links))
	for _, pair := range req.Links {
		links = append(links, topology.Link{A: pair[0], B: pair[1]})
	}

	s.faultMu.Lock()
	var fs topology.FaultSet
	if cur := s.faults[name]; cur != nil {
		fs = cur.Faults()
	}
	switch req.Action {
	case "down":
		fs.DeadLinks = append(fs.DeadLinks, links...)
		fs.DeadNodes = append(fs.DeadNodes, req.Nodes...)
	case "slow":
		if len(req.Nodes) != 0 {
			s.faultMu.Unlock()
			return writeError(w, http.StatusBadRequest, "action \"slow\" applies to links, not nodes")
		}
		if !(req.Factor > 1) {
			s.faultMu.Unlock()
			return writeError(w, http.StatusBadRequest,
				fmt.Sprintf("action \"slow\" needs factor > 1, got %g", req.Factor))
		}
		for _, l := range links {
			fs.SlowLinks = append(fs.SlowLinks, topology.SlowLink{Link: l, Factor: req.Factor})
		}
	case "restore":
		fs = restoreFaults(fs, links, req.Nodes)
	case "clear":
		fs = topology.FaultSet{}
	default:
		s.faultMu.Unlock()
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown action %q (valid: down, slow, restore, clear)", req.Action))
	}
	// Overlay canonicalizes and validates the merged set against the
	// base fabric (in-range nodes, adjacent endpoints, sane factors); it
	// is used for nothing else. The registry keeps the handle Resolve
	// files under the faulted fabric's name, so a report and a request
	// that names the same digest are served on one handle, whose routes
	// and live-graph facts are derived once.
	d, err := topology.Overlay(base, fs)
	if err != nil {
		s.faultMu.Unlock()
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	canon := d.Faults()
	digest := d.HealthDigest()
	net := base
	if canon.Empty() {
		delete(s.faults, name)
	} else {
		if net, err = topology.Resolve(d.Name()); err != nil {
			s.faultMu.Unlock()
			return writeError(w, http.StatusInternalServerError, err.Error())
		}
		s.faults[name] = net.(*topology.Degraded)
	}
	s.faultMu.Unlock()
	s.faultUpdates.Add(1)

	// Retire plans computed under a now-superseded fault digest. Bare
	// lines stay: they are the last-known-good fallback and stay correct
	// for the healthy fabric.
	invalidated := s.cache.InvalidateWhere(func(_, topo string) bool {
		b, dg := topology.SplitSpec(topo)
		return b == name && dg != "" && dg != digest
	})

	resp := FaultsResponse{
		Topology:    name,
		Health:      digest,
		Operational: topology.CheckOperational(net) == nil,
		DeadNodes:   canon.DeadNodes,
		Invalidated: invalidated,
	}
	for _, l := range canon.DeadLinks {
		resp.DeadLinks = append(resp.DeadLinks, l.String())
	}
	for _, sl := range canon.SlowLinks {
		resp.SlowLinks = append(resp.SlowLinks, fmt.Sprintf("%d-%d:%g", sl.A, sl.B, sl.Factor))
	}
	s.cfg.Logger.Info("fault state updated", "component", "faults",
		"action", req.Action, "topology", name, "health", digest,
		"operational", resp.Operational, "lines_retired", invalidated)

	// Fan the accepted update out to live peers so digest-keyed
	// invalidation stays fleet-consistent. Forwarded copies carry a
	// loop-guard header and are never re-forwarded; failures are
	// best-effort (logged + counted), never the client's problem. The
	// update is applied here already, so a client hanging up must not
	// stop it reaching the peers: the forwards outlive the request (each
	// is bounded by the peer fetch timeout) and keep its request ID.
	if s.cfg.Cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		body, err := json.Marshal(req)
		if err == nil {
			resp.Forwarded, resp.ForwardFailed = s.cfg.Cluster.ForwardFaults(context.WithoutCancel(r.Context()), body)
		} else {
			s.cfg.Logger.Error("cannot marshal fault update for forwarding", "component", "faults", "error", err)
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// restoreFaults removes the named links and nodes from a fault set.
func restoreFaults(fs topology.FaultSet, links []topology.Link, nodes []int) topology.FaultSet {
	linkGone := make(map[[2]int]bool, len(links))
	for _, l := range links {
		lo, hi := l.A, l.B
		if lo > hi {
			lo, hi = hi, lo
		}
		linkGone[[2]int{lo, hi}] = true
	}
	nodeGone := make(map[int]bool, len(nodes))
	for _, p := range nodes {
		nodeGone[p] = true
	}
	out := topology.FaultSet{}
	for _, p := range fs.DeadNodes {
		if !nodeGone[p] {
			out.DeadNodes = append(out.DeadNodes, p)
		}
	}
	for _, l := range fs.DeadLinks {
		if !linkGone[[2]int{l.A, l.B}] {
			out.DeadLinks = append(out.DeadLinks, l)
		}
	}
	for _, sl := range fs.SlowLinks {
		if !linkGone[[2]int{sl.A, sl.B}] {
			out.SlowLinks = append(out.SlowLinks, sl)
		}
	}
	return out
}

// applyFaults returns the handle the fault registry holds for base — the
// one topology.Resolve gave for the faulted fabric's name when its faults
// were last reported, so the same handle a request naming that digest
// gets — or base itself when the fabric is healthy. A network that
// already is a degraded overlay (the client asked for an explicit fault
// digest) passes through untouched. The returned digest is "ok" for a
// healthy fabric.
func (s *Server) applyFaults(base topology.Network) (topology.Network, string) {
	if dg, ok := base.(*topology.Degraded); ok {
		return base, dg.HealthDigest()
	}
	s.faultMu.Lock()
	d := s.faults[base.Name()]
	s.faultMu.Unlock()
	if d == nil {
		return base, "ok"
	}
	return d, d.HealthDigest()
}

// planFor answers one plan query under the fabric's current fault
// state. On a healthy fabric it is exactly the cache lookup. Under
// faults it plans on the degraded overlay; if that fails (a severed
// fabric cannot be planned, a build error), it degrades gracefully:
// the healthy base fabric's plan is served flagged degraded — a
// last-known-good answer that ignores the faults — and a bounded-retry
// background rebuild is scheduled.
func (s *Server) planFor(ctx context.Context, machine string, base topology.Network, m int) (p plancache.Plan, health string, degraded bool, err error) {
	net, digest := s.applyFaults(base)
	p, err = s.cache.GetForCtx(ctx, machine, net, m)
	if err == nil {
		return p, digest, false, nil
	}
	if digest == "ok" || net == base {
		// Healthy fabric, or an explicit degraded spec from the client:
		// no fallback, the error is the answer.
		return plancache.Plan{}, "", false, err
	}
	if ctx.Err() != nil {
		// The client is gone; don't burn a last-known-good lookup or a
		// rebuild on an answer nobody is waiting for.
		return plancache.Plan{}, "", false, err
	}
	lkg, lerr := s.cache.GetForCtx(ctx, machine, base, m)
	if lerr != nil {
		return plancache.Plan{}, "", false, err
	}
	s.degradedServes.Add(1)
	s.scheduleRebuild(machine, base)
	return lkg, digest, true, nil
}

// scheduleRebuild starts (at most one per (machine, fabric)) a
// background goroutine that retries building the degraded plan line
// with exponential backoff. Each attempt re-reads the fabric's current
// fault set, so an operator restoring hardware mid-retry is picked up.
func (s *Server) scheduleRebuild(machine string, base topology.Network) {
	key := machine + "\x00" + base.Name()
	s.faultMu.Lock()
	if s.rebuilding[key] {
		s.faultMu.Unlock()
		return
	}
	s.rebuilding[key] = true
	s.faultMu.Unlock()
	go s.rebuild(key, machine, base)
}

func (s *Server) rebuild(key, machine string, base topology.Network) {
	defer func() {
		s.faultMu.Lock()
		delete(s.rebuilding, key)
		s.faultMu.Unlock()
	}()
	backoff := s.cfg.RebuildBackoff
	var lastErr error
	for attempt := 1; attempt <= s.cfg.RebuildAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff)
			backoff *= 2
		}
		net, digest := s.applyFaults(base)
		if digest == "ok" {
			// Faults were cleared while we were backing off; the bare
			// line is the right answer again.
			return
		}
		if _, err := s.cache.WarmForCtx(context.Background(), machine, net); err != nil {
			lastErr = err
			continue
		}
		s.rebuilds.Add(1)
		s.cfg.Logger.Info("rebuilt degraded line", "component", "faults",
			"machine", machine, "topology", net.Name(), "attempts", attempt)
		return
	}
	s.rebuildFailures.Add(1)
	s.cfg.Logger.Warn("giving up rebuilding degraded line", "component", "faults",
		"machine", machine, "topology", base.Name(),
		"attempts", s.cfg.RebuildAttempts, "error", lastErr)
}

// FaultMetrics is the fault-handling slice of /metrics.
type FaultMetrics struct {
	ActiveFaultSets int   `json:"active_fault_sets" prom:"pland_fault_sets_active,gauge" help:"Fabrics currently carrying fault state."`
	Updates         int64 `json:"updates" prom:"pland_fault_updates_total,counter" help:"Accepted fault-state updates."`
	// DegradedServes' fabric could not be planned under its faults.
	DegradedServes int64 `json:"degraded_serves" prom:"pland_degraded_serves_total,counter" help:"Plan answers served from last-known-good state."`
	// Rebuilds and RebuildFailures count background rebuild outcomes.
	Rebuilds        int64 `json:"rebuilds" prom:"pland_fault_rebuilds_total,counter" help:"Plan lines rebuilt under fault state."`
	RebuildFailures int64 `json:"rebuild_failures" prom:"pland_fault_rebuild_failures_total,counter" help:"Rebuild retry budgets exhausted."`
}

func (s *Server) faultMetrics() FaultMetrics {
	s.faultMu.Lock()
	active := len(s.faults)
	s.faultMu.Unlock()
	return FaultMetrics{
		ActiveFaultSets: active,
		Updates:         s.faultUpdates.Load(),
		DegradedServes:  s.degradedServes.Load(),
		Rebuilds:        s.rebuilds.Load(),
		RebuildFailures: s.rebuildFailures.Load(),
	}
}

// FaultTopologies lists the fabrics currently carrying fault state, for
// /healthz visibility.
func (s *Server) FaultTopologies() []string {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	out := make([]string, 0, len(s.faults))
	for name := range s.faults {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
