package service

import (
	"net/http"
	"sort"

	"repro/internal/obs"
	"repro/internal/topology"
)

// writePrometheus renders every /metrics counter, gauge, and histogram
// in the Prometheus text exposition format (version 0.0.4). Metric
// names are stable API: dashboards and alerts key on them, so renames
// are breaking changes. Durations are exposed in microseconds (the
// unit every JSON field already uses), suffixed _us.
func (s *Server) writePrometheus(w http.ResponseWriter) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	p := obs.NewPromWriter(w)

	cs := s.cache.Stats()
	p.Counter("pland_cache_hits_total", "Requests answered from a resident plan line.", nil, float64(cs.Hits))
	p.Counter("pland_cache_misses_total", "Requests that built or waited for a plan line.", nil, float64(cs.Misses))
	p.Counter("pland_cache_evictions_total", "Plan lines dropped by the per-shard LRU bound.", nil, float64(cs.Evictions))
	p.Counter("pland_cache_builds_total", "Completed local line builds.", nil, float64(cs.Builds))
	p.Counter("pland_cache_peer_imports_total", "Misses filled by importing a peer's line.", nil, float64(cs.PeerImports))
	p.Counter("pland_cache_shed_total", "Misses refused because the build bound was reached.", nil, float64(cs.Shed))
	p.Gauge("pland_cache_inflight_builds", "Line builds running right now.", nil, float64(cs.Inflight))
	p.Gauge("pland_cache_lines", "Resident plan lines.", nil, float64(cs.Lines))
	p.Gauge("pland_cache_segments", "Resident hull segments.", nil, float64(cs.Segments))

	os := s.cache.OptimizerStats()
	p.Counter("pland_optimizer_evaluations_total", "Optimizer enumeration passes.", nil, float64(os.Evaluations))
	p.Counter("pland_optimizer_evaluated_total", "Candidate partitions fully costed.", nil, float64(os.Evaluated))
	p.Counter("pland_optimizer_pruned_total", "Candidate partitions cut by the bound.", nil, float64(os.Pruned))
	p.Counter("pland_optimizer_memo_hits_total", "Simulated-backend phase-memo hits (an analytic build keeps no memo).", nil, float64(os.MemoHits))
	p.Counter("pland_optimizer_memo_misses_total", "Simulated-backend phase-memo misses: fragment replays run or bounds computed.", nil, float64(os.MemoMisses))
	p.Counter("pland_optimizer_replays_sharded_total", "Simulated replays that ran on link-disjoint engine shards.", nil, float64(os.ReplaysSharded))
	p.Counter("pland_optimizer_replays_serial_total", "Simulated replays that ran serial (including sharded fallbacks and closed-form replays).", nil, float64(os.ReplaysSerial))

	rm := s.replayMetrics()
	p.Header("pland_replay_phases_total", "counter", "Replayed phases by pricing mode: closed form under a lockstep certificate, or the event engine.")
	p.Sample("pland_replay_phases_total", map[string]string{"mode": "closed_form"}, float64(rm.PhasesClosedForm))
	p.Sample("pland_replay_phases_total", map[string]string{"mode": "engine"}, float64(rm.PhasesEngine))
	p.Counter("pland_replay_certificates_total", "Phase certificate passes run (at most one per topology and phase field).", nil, float64(rm.Certificates))
	p.Counter("pland_replay_aborted_total", "Replays abandoned at their cutoff: the candidate was proven to lose before its replay finished.", nil, float64(rm.Aborted))
	if len(rm.Declines) > 0 {
		reasons := make([]string, 0, len(rm.Declines))
		for reason := range rm.Declines {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		p.Header("pland_replay_declines_total", "counter", "Replays with an engine-run phase, by why the first such phase was not priced in closed form.")
		for _, reason := range reasons {
			p.Sample("pland_replay_declines_total", map[string]string{"reason": reason}, float64(rm.Declines[reason]))
		}
	}

	ts := topology.ResolveStats()
	p.Gauge("pland_topology_handles", "Fabrics resident in the shared handle table.", nil, float64(ts.Handles))
	p.Counter("pland_topology_resolve_hits_total", "Topology specs answered by a resident handle.", nil, float64(ts.Hits))
	p.Counter("pland_topology_resolve_misses_total", "Topology specs that had to be parsed.", nil, float64(ts.Misses))
	p.Counter("pland_topology_resolve_evictions_total", "Handles dropped to keep the table within its bound.", nil, float64(ts.Evictions))
	p.Counter("pland_topology_derivations_total", "Degraded overlays whose live-graph facts were derived.", nil, float64(ts.Derivations))
	p.Counter("pland_topology_derive_us_total", "Microseconds spent in those derivations.", nil, float64(ts.DeriveMicros))

	fm := s.faultMetrics()
	p.Gauge("pland_fault_sets_active", "Fabrics currently carrying fault state.", nil, float64(fm.ActiveFaultSets))
	p.Counter("pland_fault_updates_total", "Accepted fault-state updates.", nil, float64(fm.Updates))
	p.Counter("pland_degraded_serves_total", "Plan answers served from last-known-good state.", nil, float64(fm.DegradedServes))
	p.Counter("pland_fault_rebuilds_total", "Plan lines rebuilt under fault state.", nil, float64(fm.Rebuilds))
	p.Counter("pland_fault_rebuild_failures_total", "Rebuild retry budgets exhausted.", nil, float64(fm.RebuildFailures))

	p.Counter("pland_panics_total", "Recovered handler panics.", nil, float64(s.panics.Load()))
	p.Counter("pland_shed_total", "Requests refused with 503 for build overload.", nil, float64(s.shed.Load()))
	p.Counter("pland_early_aborts_total", "Requests whose client disconnected first.", nil, float64(s.earlyAborts.Load()))
	p.Counter("pland_traces_committed_total", "Request traces committed to the debug ring.", nil, float64(s.cfg.Tracer.Committed()))

	if s.cfg.Cluster != nil {
		cm := s.cfg.Cluster.Metrics()
		p.Counter("pland_peer_hits_total", "Misses filled by a successful owner fetch.", nil, float64(cm.PeerHits))
		p.Counter("pland_peer_fetch_failures_total", "Owner fetches that exhausted their budget.", nil, float64(cm.PeerFetchFailures))
		p.Counter("pland_peer_fallback_builds_total", "Local builds forced by a failed owner fetch.", nil, float64(cm.FallbackBuilds))
		p.Counter("pland_fault_forwards_total", "Fault updates forwarded to peers.", nil, float64(cm.FaultForwards))
		p.Counter("pland_fault_forward_failures_total", "Fault forwards that failed.", nil, float64(cm.FaultForwardFailures))
		p.Counter("pland_warmed_lines_total", "Lines imported by startup snapshot fan-out.", nil, float64(cm.WarmedLines))
		p.Header("pland_peer_up", "gauge", "Last health-probe verdict per peer (1 = up).")
		for _, pm := range cm.Peers {
			v := 0.0
			if pm.Up {
				v = 1
			}
			p.Sample("pland_peer_up", map[string]string{"peer": pm.URL}, v)
		}
		p.Header("pland_peer_breaker_trips_total", "counter", "Breaker closed-to-open transitions per peer.")
		for _, pm := range cm.Peers {
			p.Sample("pland_peer_breaker_trips_total", map[string]string{"peer": pm.URL}, float64(pm.BreakerTrips))
		}
		p.Header("pland_peer_consecutive_failures", "gauge", "Current fetch-failure streak per peer.")
		for _, pm := range cm.Peers {
			p.Sample("pland_peer_consecutive_failures", map[string]string{"peer": pm.URL}, float64(pm.ConsecutiveFailures))
		}
	}

	// Per-endpoint request counters and latency histograms. Iterate in
	// sorted order so scrapes diff cleanly.
	type endpointSnap struct {
		name string
		st   *endpointStats
	}
	s.mu.Lock()
	endpoints := make([]endpointSnap, 0, len(s.stats))
	for name, st := range s.stats {
		endpoints = append(endpoints, endpointSnap{name, st})
	}
	s.mu.Unlock()
	sort.Slice(endpoints, func(i, j int) bool { return endpoints[i].name < endpoints[j].name })

	p.Header("pland_http_requests_total", "counter", "Requests served per endpoint.")
	for _, e := range endpoints {
		p.Sample("pland_http_requests_total", map[string]string{"endpoint": e.name}, float64(e.st.count.Load()))
	}
	p.Header("pland_http_request_errors_total", "counter", "Requests answered with status >= 400 per endpoint.")
	for _, e := range endpoints {
		p.Sample("pland_http_request_errors_total", map[string]string{"endpoint": e.name}, float64(e.st.errors.Load()))
	}
	p.Header("pland_http_inflight", "gauge", "Requests being served right now per endpoint.")
	for _, e := range endpoints {
		p.Sample("pland_http_inflight", map[string]string{"endpoint": e.name}, float64(e.st.inflight.Load()))
	}
	p.Header("pland_http_request_duration_us", "histogram", "Request latency per endpoint in microseconds.")
	for _, e := range endpoints {
		p.Histogram("pland_http_request_duration_us", map[string]string{"endpoint": e.name}, e.st.hist.Snapshot())
	}

	stages := s.cfg.Tracer.StageStats()
	if len(stages) > 0 {
		names := make([]string, 0, len(stages))
		for name := range stages {
			names = append(names, name)
		}
		sort.Strings(names)
		p.Header("pland_stage_duration_us", "histogram", "Traced stage latency in microseconds.")
		for _, name := range names {
			p.Histogram("pland_stage_duration_us", map[string]string{"stage": name}, stages[name])
		}
	}

	return http.StatusOK
}
