package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

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
	// complete exchange (every node alive, live graph connected). Until
	// restored, a non-operational fabric's /v1/plan and /v1/batch answers
	// are the healthy base's plans flagged degraded; /v1/cost, /v1/hull
	// and a spec naming the faulted fabric answer 400.
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
	// A set left empty makes the fabric healthy: it leaves the registry.
	// Otherwise Overlay canonicalizes and validates the merged set against
	// the base fabric (in-range nodes, adjacent endpoints, sane factors);
	// it is used for nothing else. The registry keeps the handle Resolve
	// files under the faulted fabric's name, so a report and a request
	// that names the same digest are served on one handle, whose routes
	// and live-graph facts are derived once.
	net, digest, canon := base, "ok", topology.FaultSet{}
	if fs.Empty() {
		delete(s.faults, name)
	} else {
		d, err := topology.Overlay(base, fs)
		if err != nil {
			s.faultMu.Unlock()
			return writeError(w, http.StatusBadRequest, err.Error())
		}
		canon, digest = d.Faults(), d.HealthDigest()
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
// state. A fabric the registry holds as non-operational (a dead node, a
// severed live graph: topology.CheckOperational, derived once per
// handle) is served the healthy base's plan flagged degraded — a
// last-known-good answer that ignores the faults — and does no cache
// work for the faulted line. Every other fabric, healthy or faulted, is
// exactly the cache lookup: its own answer or its own error.
func (s *Server) planFor(ctx context.Context, machine string, base topology.Network, m int) (p plancache.Plan, health string, degraded bool, err error) {
	net, digest := s.applyFaults(base)
	if net != base && topology.CheckOperational(net) != nil {
		net, degraded = base, true
	}
	if p, err = s.cache.GetForCtx(ctx, machine, net, m); err != nil {
		return plancache.Plan{}, "", false, err
	}
	if degraded {
		s.degradedServes.Add(1)
	}
	return p, digest, degraded, nil
}

// FaultMetrics is the fault-handling slice of /metrics.
type FaultMetrics struct {
	ActiveFaultSets int   `json:"active_fault_sets" prom:"pland_fault_sets_active,gauge" help:"Fabrics currently carrying fault state."`
	Updates         int64 `json:"updates" prom:"pland_fault_updates_total,counter" help:"Accepted fault-state updates."`
	// DegradedServes' fabric could not be planned under its faults.
	DegradedServes int64 `json:"degraded_serves" prom:"pland_degraded_serves_total,counter" help:"Plan answers served from last-known-good state."`
}

func (s *Server) faultMetrics() FaultMetrics {
	s.faultMu.Lock()
	active := len(s.faults)
	s.faultMu.Unlock()
	return FaultMetrics{
		ActiveFaultSets: active,
		Updates:         s.faultUpdates.Load(),
		DegradedServes:  s.degradedServes.Load(),
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
