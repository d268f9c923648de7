package service

import (
	"context"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// Peer-serving endpoints: the cluster layer's server side. A replica
// answers line fetches and snapshot fan-outs from its own cache; the
// handlers are registered unconditionally (they are harmless and
// useful for debugging standalone), but only cluster.FetchLine and
// cluster.WarmOwned are intended clients.

// handlePeerLine serves one cache line as plancache.LineData:
// GET /v1/peer/line?machine=...&topology=...
//
// The owner builds the line on demand when it is not resident — that
// is the point of ownership: the build happens once, here, instead of
// once per replica. The build runs detached from the request context:
// a fetcher whose per-attempt deadline fires mid-build must not abort
// the build, because its retry (or the next fetcher) then finds the
// line resident and serves in microseconds.
func (s *Server) handlePeerLine(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	machine := q.Get("machine")
	if machine == "" {
		machine = s.cfg.DefaultMachine
	}
	name, _, err := s.cache.Resolve(machine)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	spec := q.Get("topology")
	if spec == "" {
		return writeError(w, http.StatusBadRequest, "missing required parameter \"topology\"")
	}
	net, err := s.resolveTopo(spec, 0, s.cfg.PlanMaxDim)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	if ld, ok := s.cache.ExportLine(name, net.Name()); ok {
		return writeJSON(w, http.StatusOK, ld)
	}
	if _, err := s.cache.WarmForCtx(context.WithoutCancel(r.Context()), name, net); err != nil {
		return s.writeCacheError(w, r, err)
	}
	ld, ok := s.cache.ExportLine(name, net.Name())
	if !ok {
		// Built and evicted between the two calls — possible only under
		// extreme cache pressure; the fetcher's local fallback covers it.
		return writeError(w, http.StatusNotFound, "line not resident")
	}
	return writeJSON(w, http.StatusOK, ld)
}

// handlePeerSnapshot serves a joining replica's warm fan-out: the cache's
// snapshot document, the same one -snapshot persists — every resident
// line that is expensive to rebuild (see plancache.(*Cache).Snapshot).
func (s *Server) handlePeerSnapshot(w http.ResponseWriter, _ *http.Request) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The status is sent: a write error means the fetcher went away, and
	// its WarmOwned skips a peer whose document does not decode.
	_ = s.cache.Snapshot(w)
	return http.StatusOK
}

// ReadyResponse is the /readyz wire format.
type ReadyResponse struct {
	// Status is "ready" or "starting".
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
	// Peers carries per-peer breaker state on a clustered daemon.
	Peers []cluster.PeerMetrics `json:"peers,omitempty"`
}

// handleReadyz reports readiness: 200 only after the daemon finished
// snapshot restore, warmup, and (when clustered) ring join + warm
// fan-out. /healthz stays pure liveness — a starting replica is alive
// (it already serves its peers' fetches and fan-outs) but not yet a
// good routing target.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) int {
	resp := ReadyResponse{UptimeS: time.Since(s.start).Seconds()}
	if s.cfg.Cluster != nil {
		resp.Peers = s.cfg.Cluster.PeerStates()
	}
	if !s.ready.Load() {
		resp.Status = "starting"
		w.Header().Set("Retry-After", "1")
		return writeJSON(w, http.StatusServiceUnavailable, resp)
	}
	resp.Status = "ready"
	return writeJSON(w, http.StatusOK, resp)
}
