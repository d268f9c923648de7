package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
)

// Peer endpoint paths. The service layer registers the handlers; the
// cluster layer is their only intended client.
const (
	// PeerLinePath serves one plan-cache line as plancache.LineData:
	// GET /v1/peer/line?machine=...&topology=...
	PeerLinePath = "/v1/peer/line"
	// PeerSnapshotPath serves every resident line (degraded included) as
	// a plancache.Snapshot document for warm fan-out.
	PeerSnapshotPath = "/v1/peer/snapshot"
	// faultsPath is the fault-update endpoint forwards replay against.
	faultsPath = "/v1/faults"
)

// ForwardedHeader marks a fault update as a fleet forward so the
// receiving replica applies it locally without forwarding again —
// one hop, never a storm.
const ForwardedHeader = "X-Pland-Fault-Forwarded"

// Config parameterizes a Cluster. Self and Peers are required.
type Config struct {
	// Self is this replica's advertised base URL. It must appear
	// verbatim in every peer's Peers list: the ring is built over the
	// sorted union {Self} ∪ Peers, and only identical URL sets give
	// identical ownership on every replica.
	Self string
	// Peers are the other replicas' base URLs.
	Peers []string
	// FetchAttempts bounds tries per peer fetch (default 3).
	FetchAttempts int
	// FetchTimeout is the per-attempt deadline (default 2s). A resident
	// line serves in microseconds; the deadline exists for the cold-owner
	// case, where the owner builds the line before answering.
	FetchTimeout time.Duration
	// FetchBackoff is the delay before the second attempt, doubled per
	// further attempt with up to 50% added jitter (default 50ms).
	FetchBackoff time.Duration
	// BreakerThreshold trips a peer's breaker after this many
	// consecutive failed calls, fetches and forwards alike (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker refuses calls
	// before admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// Logger receives forward failures and skipped warm lines (default
	// slog.Default()).
	Logger *slog.Logger

	// now is injected by tests; nil means time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.FetchAttempts <= 0 {
		c.FetchAttempts = 3
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.FetchBackoff <= 0 {
		c.FetchBackoff = 50 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// peer is one remote replica's serving state. Its breaker is the one
// failure detector: fetches and fault forwards both consult it and both
// book their outcomes on it. Peers start closed: optimism costs at most
// one fast failed call, while pessimism would cost guaranteed local
// builds until a cooldown.
type peer struct {
	url     string
	breaker *breaker
}

// Cluster is the peer layer over a static replica set. Safe for
// concurrent use.
type Cluster struct {
	cfg   Config
	ring  *Ring
	self  string
	peers map[string]*peer // keyed by base URL
	order []string         // stable iteration order (sorted)
	http  *http.Client     // per-call contexts carry the deadlines

	peerHits, peerFetchFailures, fallbackBuilds atomic.Int64
	faultForwards, faultForwardFailures         atomic.Int64
	warmedLines                                 atomic.Int64
}

// New builds the peer layer. Self must be non-empty and is excluded
// from its own peer set if listed.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	members := []string{self}
	peers := make(map[string]*peer)
	var order []string
	for _, p := range cfg.Peers {
		u, err := normalizeURL(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if u == self {
			continue
		}
		if _, dup := peers[u]; dup {
			continue
		}
		peers[u] = &peer{
			url:     u,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		}
		members = append(members, u)
		order = append(order, u)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("cluster: no peers besides self %s", self)
	}
	ring, err := NewRing(members, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	sort.Strings(order)
	return &Cluster{cfg: cfg, ring: ring, self: self, peers: peers, order: order, http: &http.Client{}}, nil
}

// normalizeURL validates a base URL and strips any trailing slash so
// the same replica spelled two ways still dedups to one ring member.
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("base URL %q must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("base URL %q has no host", raw)
	}
	return raw, nil
}

// Self returns this replica's normalized advertised URL.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the membership ring (the fleet e2e test and the load
// generator's owner report use it to predict placements).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the replica URL owning a line key.
func (c *Cluster) Owner(machine, topo string) string {
	return c.ring.Owner(LineKey(machine, topo))
}

// FetchLine implements plancache.Config.Fetch: on a local miss, fetch
// the line from its ring owner. The cache asks only for lines whose
// build costs more than the hop (simulated or faulted); FetchLine itself
// fetches every key it does not own. It declines (nil, nil) when this
// replica owns the key — the local build is the right move, not a
// fallback. Any other error return means the caller will fall back to a
// local build, which is exactly what the fallback counter records; a
// fetch ended by the caller's own context builds nothing, so it is
// booked neither against the peer nor as a fallback.
func (c *Cluster) FetchLine(ctx context.Context, machine, topo string) (*plancache.LineData, error) {
	owner := c.Owner(machine, topo)
	if owner == c.self {
		return nil, nil
	}
	p := c.peers[owner]
	if p == nil {
		// A ring member that is not in the peer map cannot happen with a
		// consistent configuration; treat it as a decline.
		return nil, nil
	}
	sp := obs.StartSpan(ctx, "peer_fetch")
	sp.SetAttr("peer", owner)
	sp.SetAttr("machine", machine)
	sp.SetAttr("topology", topo)
	ld, err := c.fetchFrom(ctx, p, machine, topo)
	if err != nil && err == ctx.Err() {
		// fetchFrom returns the context's error bare only when the
		// caller gave up first.
		sp.SetAttr("outcome", "cancelled")
		sp.End()
		return nil, err
	}
	if err != nil {
		c.peerFetchFailures.Add(1)
		c.fallbackBuilds.Add(1)
		sp.SetAttr("outcome", "fallback_build")
		sp.End()
		return nil, err
	}
	c.peerHits.Add(1)
	sp.SetAttr("outcome", "hit")
	sp.End()
	return ld, nil
}

// fetchFrom runs the guarded fetch loop against one peer: skip if its
// breaker refuses, otherwise up to FetchAttempts tries, each under its
// own deadline, with exponential backoff plus jitter between attempts.
func (c *Cluster) fetchFrom(ctx context.Context, p *peer, machine, topo string) (*plancache.LineData, error) {
	if !p.breaker.allow() {
		return nil, fmt.Errorf("cluster: peer %s breaker is open", p.url)
	}
	backoff := c.cfg.FetchBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.FetchAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter on the upper half: backoff/2 .. backoff, so a
			// thundering herd of retriers decorrelates.
			d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				p.breaker.abandon()
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		ld, err := c.fetchOnce(ctx, p.url, machine, topo)
		if err == nil {
			p.breaker.success()
			return ld, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller is gone; this says nothing about the peer.
			p.breaker.abandon()
			return nil, ctx.Err()
		}
	}
	p.breaker.failure()
	return nil, fmt.Errorf("cluster: fetching %s/%s from %s: %w", machine, topo, p.url, lastErr)
}

// fetchOnce is one attempt under one deadline.
func (c *Cluster) fetchOnce(ctx context.Context, base, machine, topo string) (*plancache.LineData, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	q := url.Values{"machine": {machine}, "topology": {topo}}
	req, err := http.NewRequestWithContext(actx, http.MethodGet, base+PeerLinePath+"?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	// Propagate the originating request's ID so the owner's trace for
	// this line carries the same ID as the fetcher's.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("peer answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var ld plancache.LineData
	if err := json.NewDecoder(resp.Body).Decode(&ld); err != nil {
		return nil, fmt.Errorf("decoding peer line: %w", err)
	}
	return &ld, nil
}

// WarmOwned fan-fetches snapshots from every peer, once each, and
// imports the lines this replica owns — the warm-restart path: a replica
// joining a running fleet starts with its share of the fleet's resident
// lines instead of rebuilding them. Peers that fail are skipped (best
// effort); the import count and the last error are returned. Nothing is
// booked on a peer's breaker: the replicas of a fleet boot together, so
// a peer that does not answer yet says nothing about its serving.
func (c *Cluster) WarmOwned(ctx context.Context, cache *plancache.Cache) (imported int, err error) {
	for _, u := range c.order {
		p := c.peers[u]
		lines, ferr := c.fetchSnapshot(ctx, p.url)
		if ferr != nil {
			err = ferr
			continue
		}
		for _, ld := range lines {
			if c.ring.Owner(LineKey(ld.Machine, ld.Topology)) != c.self {
				continue
			}
			if ierr := cache.ImportLine(ld); ierr != nil {
				c.cfg.Logger.Warn("skipping warm line", "component", "cluster", "peer", p.url, "error", ierr)
				continue
			}
			imported++
		}
	}
	c.warmedLines.Add(int64(imported))
	return imported, err
}

func (c *Cluster) fetchSnapshot(ctx context.Context, base string) ([]plancache.LineData, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, base+PeerSnapshotPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s snapshot answered %d", base, resp.StatusCode)
	}
	var snap plancache.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("cluster: decoding peer %s snapshot: %w", base, err)
	}
	if snap.Version != plancache.SnapshotVersion {
		return nil, fmt.Errorf("cluster: peer %s snapshot version %d, want %d",
			base, snap.Version, plancache.SnapshotVersion)
	}
	return snap.Lines, nil
}

// ForwardFaults replays one fault-update body against every peer whose
// breaker admits it (marked with ForwardedHeader so it is applied, not
// re-forwarded), and books each forward's outcome on that breaker like
// a fetch's. Best effort: failures are counted, logged, and reported,
// never fatal — a partitioned peer re-converges on its next fault
// update or restart, and until then serves under its own digest.
func (c *Cluster) ForwardFaults(ctx context.Context, body []byte) (forwarded, failed int) {
	for _, u := range c.order {
		p := c.peers[u]
		if !p.breaker.allow() {
			failed++
			c.cfg.Logger.Warn("not forwarding faults to peer with open breaker", "component", "cluster", "peer", p.url)
			continue
		}
		err := c.forwardOnce(ctx, p.url, body)
		switch {
		case err == nil:
			p.breaker.success()
			forwarded++
			continue
		case ctx.Err() != nil:
			// The forward's context ended; this says nothing about the peer.
			p.breaker.abandon()
		default:
			p.breaker.failure()
		}
		failed++
		c.cfg.Logger.Warn("forwarding faults failed", "component", "cluster", "peer", p.url, "error", err)
	}
	c.faultForwards.Add(int64(forwarded))
	c.faultForwardFailures.Add(int64(failed))
	return forwarded, failed
}

func (c *Cluster) forwardOnce(ctx context.Context, base string, body []byte) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, base+faultsPath, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("peer answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// PeerMetrics is one peer's serving state on /metrics and /readyz.
type PeerMetrics struct {
	URL string `json:"url"`
	// Up is false exactly while the peer's breaker is open.
	Up bool `json:"up" prom:"pland_peer_up,gauge" help:"1 unless the peer's breaker is open."`
	// Breaker is "closed", "open", or "half-open".
	Breaker             string `json:"breaker" prom:"-"`
	ConsecutiveFailures int    `json:"consecutive_failures" prom:"pland_peer_consecutive_failures,gauge" help:"Current fetch-failure streak per peer."`
	BreakerTrips        int64  `json:"breaker_trips" prom:"pland_peer_breaker_trips_total,counter" help:"Breaker closed-to-open transitions per peer."`
}

// Metrics is the cluster slice of /metrics.
type Metrics struct {
	Self     string        `json:"self" prom:"-"`
	Peers    []PeerMetrics `json:"peers" prom:"peer=URL"`
	PeerHits int64         `json:"peer_hits_total" prom:"pland_peer_hits_total,counter" help:"Misses filled by a successful owner fetch."`
	// PeerFetchFailures' budget is the fetch deadline, retries and breaker.
	PeerFetchFailures int64 `json:"peer_fetch_failures_total" prom:"pland_peer_fetch_failures_total,counter" help:"Owner fetches that exhausted their budget."`
	// FallbackBuilds is the degraded-but-served path.
	FallbackBuilds       int64 `json:"peer_fallback_builds_total" prom:"pland_peer_fallback_builds_total,counter" help:"Local builds forced by a failed owner fetch."`
	FaultForwards        int64 `json:"fault_forwards_total" prom:"pland_fault_forwards_total,counter" help:"Fault updates forwarded to peers."`
	FaultForwardFailures int64 `json:"fault_forward_failures_total" prom:"pland_fault_forward_failures_total,counter" help:"Fault forwards that failed."`
	WarmedLines          int64 `json:"warmed_lines_total" prom:"pland_warmed_lines_total,counter" help:"Lines imported by startup snapshot fan-out."`
}

// Metrics returns a point-in-time snapshot.
func (c *Cluster) Metrics() Metrics {
	m := Metrics{
		Self:                 c.self,
		PeerHits:             c.peerHits.Load(),
		PeerFetchFailures:    c.peerFetchFailures.Load(),
		FallbackBuilds:       c.fallbackBuilds.Load(),
		FaultForwards:        c.faultForwards.Load(),
		FaultForwardFailures: c.faultForwardFailures.Load(),
		WarmedLines:          c.warmedLines.Load(),
	}
	m.Peers = c.PeerStates()
	return m
}

// PeerStates returns every peer's breaker state, sorted by URL.
func (c *Cluster) PeerStates() []PeerMetrics {
	out := make([]PeerMetrics, 0, len(c.order))
	for _, u := range c.order {
		p := c.peers[u]
		state, fails, trips := p.breaker.snapshot()
		out = append(out, PeerMetrics{
			URL:                 p.url,
			Up:                  state != breakerOpen,
			Breaker:             state,
			ConsecutiveFailures: fails,
			BreakerTrips:        trips,
		})
	}
	return out
}
