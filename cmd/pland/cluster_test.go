package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
)

// reserveFleet opens n loopback listeners, so the fleet's peer URLs are
// known before any replica boots.
func reserveFleet(t *testing.T, n int) (lns []net.Listener, urls []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return lns, urls
}

// startFleetNode is startDaemon over a pre-reserved listener. The daemon
// is returned so a test can hard-close its server (d.srv.Close, the
// in-process kill -9); stop tolerates a daemon that died that way.
func startFleetNode(t *testing.T, o options, ln net.Listener) (d *daemon, stop func()) {
	t.Helper()
	o.logger = slog.New(slog.DiscardHandler)
	d, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, ln) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		// Shutdown waits five seconds on a connection that never carried
		// a request — a dial that lost the race to a freed one and sits
		// unused in a pool. Every client of the fleet, the replicas' peer
		// clients included, pools on the default transport: empty it.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down")
		}
	}
	t.Cleanup(stop)
	return d, stop
}

// clusterMetricsWire mirrors the /metrics fields the fleet test asserts.
type clusterMetricsWire struct {
	Cache struct {
		Builds      int64 `json:"builds"`
		PeerImports int64 `json:"peer_imports"`
	} `json:"cache"`
	Cluster struct {
		PeerHits       int64 `json:"peer_hits_total"`
		FallbackBuilds int64 `json:"peer_fallback_builds_total"`
		Peers          []struct {
			URL     string `json:"url"`
			Breaker string `json:"breaker"`
		} `json:"peers"`
	} `json:"cluster"`
}

// breakerOf returns the breaker state reported for one peer, "" if the
// peer is not listed.
func (m clusterMetricsWire) breakerOf(peer string) string {
	for _, p := range m.Cluster.Peers {
		if p.URL == peer {
			return p.Breaker
		}
	}
	return ""
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready", base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetEndToEnd is the clustered acceptance path: a non-owner
// serves a line by fetching it from its ring owner (the owner builds
// once, the fetcher imports instead of building), and after the owner
// dies the same fetcher still answers — by local fallback build, within
// one client deadline, with the breaker trip visible on /metrics.
func TestFleetEndToEnd(t *testing.T) {
	lns, urls := reserveFleet(t, 3)
	peers := strings.Join(urls, ",")

	stops := make([]func(), len(lns))
	for i := range lns {
		_, stops[i] = startFleetNode(t, options{
			machine:          "ipsc860",
			backend:          "simulated", // a line the ring still fetches: its build replays
			sweepHi:          64,
			sweepStep:        16,
			self:             urls[i],
			peers:            peers,
			peerAttempts:     1,
			breakerThreshold: 1,
			probeEvery:       time.Hour, // only the startup sweep: the test owns peer-state timing
		}, lns[i])
	}
	for _, u := range urls {
		waitReady(t, u)
	}

	// Map two hypercube lines to the same owner, and pick a distinct
	// replica as the fetcher. The ring hangs off the OS-assigned ports, so
	// which replica owns what differs run to run; but four lines over
	// three replicas give some replica two of hypercube-3..6.
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[string][]int)
	var owner string
	var dims []int
	for d := 3; d <= 6 && dims == nil; d++ {
		o := ring.Owner(cluster.LineKey("ipsc860", fmt.Sprintf("hypercube-%d", d)))
		if owned[o] = append(owned[o], d); len(owned[o]) == 2 {
			owner, dims = o, owned[o]
		}
	}
	var fetcher string
	ownerIdx := -1
	for i, u := range urls {
		if u == owner {
			ownerIdx = i
		} else if fetcher == "" {
			fetcher = u
		}
	}

	// Owner-serve: the non-owner answers by peer fetch. The owner builds
	// the line (once, on demand); the fetcher imports it.
	var plan planWire
	fetch(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=%d&m=40", fetcher, dims[0]), &plan)
	var fm, om clusterMetricsWire
	fetch(t, fetcher+"/metrics", &fm)
	fetch(t, owner+"/metrics", &om)
	if fm.Cluster.PeerHits != 1 || fm.Cache.PeerImports != 1 || fm.Cache.Builds != 0 {
		t.Fatalf("fetcher after peer serve: hits=%d imports=%d builds=%d, want 1/1/0",
			fm.Cluster.PeerHits, fm.Cache.PeerImports, fm.Cache.Builds)
	}
	if om.Cache.Builds != 1 {
		t.Fatalf("owner built %d lines, want exactly 1", om.Cache.Builds)
	}

	// Resident now: a repeat query on the fetcher touches nobody.
	fetch(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=%d&m=80", fetcher, dims[0]), &plan)
	fetch(t, fetcher+"/metrics", &fm)
	if fm.Cluster.PeerHits != 1 {
		t.Fatalf("repeat query re-fetched from the owner (hits %d)", fm.Cluster.PeerHits)
	}

	// Kill the owner. The fleet froze probing (probeEvery is an hour), so
	// the fetcher still believes the owner is up: its next owned-line
	// miss pays one failed fetch, trips the breaker, and falls back to a
	// local build — the request must still succeed, quickly.
	stops[ownerIdx]()
	client := &http.Client{Timeout: 15 * time.Second}
	began := time.Now()
	resp, err := client.Get(fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=%d&m=40", fetcher, dims[1]))
	if err != nil {
		t.Fatalf("request after owner death: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after owner death: %d, want 200 via local fallback", resp.StatusCode)
	}
	if took := time.Since(began); took > 10*time.Second {
		t.Fatalf("fallback took %v — dead peer stalled the request", took)
	}

	fetch(t, fetcher+"/metrics", &fm)
	if fm.Cluster.FallbackBuilds < 1 {
		t.Fatal("peer_fallback_builds_total did not move after owner death")
	}
	if fm.Cache.Builds < 1 {
		t.Fatal("fetcher did not build locally after owner death")
	}
	if breaker := fm.breakerOf(owner); breaker != "open" {
		t.Fatalf("dead owner's breaker is %q on the fetcher's /metrics, want open", breaker)
	}
}

// TestAnalyticFleetBuildsLocally: on the analytic backend a healthy line
// rebuilds in microseconds, less than one hop to its owner costs, so
// every replica builds it itself — and all three answer alike.
func TestAnalyticFleetBuildsLocally(t *testing.T) {
	lns, urls := reserveFleet(t, 3)
	peers := strings.Join(urls, ",")
	for i := range lns {
		startFleetNode(t, options{
			machine:    "ipsc860",
			self:       urls[i],
			peers:      peers,
			probeEvery: time.Hour,
		}, lns[i])
	}
	for _, u := range urls {
		waitReady(t, u)
	}

	var parts []string
	for _, u := range urls {
		var plan planWire
		fetch(t, u+"/v1/plan?machine=ipsc860&d=12&m=40", &plan)
		parts = append(parts, fmt.Sprint(plan.Partition))
	}
	if parts[0] != parts[1] || parts[1] != parts[2] {
		t.Fatalf("replicas disagree on hypercube-12 m=40: %v", parts)
	}
	var hits int64
	for _, u := range urls {
		var m struct {
			clusterMetricsWire
			Endpoints map[string]struct {
				Count int64 `json:"count"`
			} `json:"endpoints"`
		}
		fetch(t, u+"/metrics", &m)
		hits += m.Cluster.PeerHits
		if m.Cache.Builds != 1 {
			t.Errorf("%s built %d lines, want 1: its own", u, m.Cache.Builds)
		}
		// Every route is listed from boot; a served peer fetch counts.
		if n := m.Endpoints[cluster.PeerLinePath].Count; n != 0 {
			t.Errorf("%s served %d %s requests, want none", u, n, cluster.PeerLinePath)
		}
	}
	if hits != 0 {
		t.Errorf("peer_hits_total is %d fleet-wide, want 0", hits)
	}
}

// TestFleetKillOwnerUnderLoad is the fleet's core promise under load: a
// ring owner hard-killed while closed-loop clients keep both survivors
// missing on lines all three replicas own costs latency, never an error.
// One shard of two lines under a working set of up to nine makes every
// pass over it miss, so the survivors fetch from the owner until it dies
// and must fall back to local builds from then on. The kill is tied to a
// request count, and every client keeps going for two more passes after
// it, so each survivor meets the dead owner whatever the scheduling.
func TestFleetKillOwnerUnderLoad(t *testing.T) {
	lns, urls := reserveFleet(t, 3)
	peers := strings.Join(urls, ",")
	nodes := make([]*daemon, len(lns))
	for i := range lns {
		nodes[i], _ = startFleetNode(t, options{
			machine:          "ipsc860",
			backend:          "simulated", // lines the ring still fetches: their builds replay
			sweepHi:          64,
			sweepStep:        16,
			self:             urls[i],
			peers:            peers,
			shards:           1,
			capacity:         2,
			peerAttempts:     1,
			breakerThreshold: 1,
			probeEvery:       time.Hour, // the survivors learn of the death from their fetches
		}, lns[i])
	}
	for _, u := range urls {
		waitReady(t, u)
	}

	// The working set: up to three lines owned by each replica.
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	type lineRef struct {
		machine string
		d       int
	}
	var lines []lineRef
	owned := make(map[string]int)
	for d := 2; d <= 7; d++ {
		for _, machine := range model.MachineNames() {
			owner := ring.Owner(cluster.LineKey(machine, fmt.Sprintf("hypercube-%d", d)))
			if owned[owner] < 3 {
				owned[owner]++
				lines = append(lines, lineRef{machine, d})
			}
		}
	}
	victim, survivors := urls[0], urls[1:]
	if owned[victim] == 0 || len(lines) < 4 {
		t.Fatalf("working set %v does not cover the victim and overflow the caches", lines)
	}

	const (
		clientsPerSurvivor = 2
		perClient          = 40 // requests each client sends at least
		killAfter          = 80 // completed requests, fleet-wide, before the owner dies
	)
	var completed, failed atomic.Int64
	var firstFailure atomic.Value
	killed := make(chan struct{})
	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	for _, base := range survivors {
		for c := 0; c < clientsPerSurvivor; c++ {
			wg.Add(1)
			go func(offset int) {
				defer wg.Done()
				afterKill := 0
				for i := 0; i < perClient || afterKill < 2*len(lines); i++ {
					select {
					case <-killed:
						afterKill++
					default:
					}
					ln := lines[(i+offset)%len(lines)]
					url := fmt.Sprintf("%s/v1/plan?machine=%s&d=%d&m=%d", base, ln.machine, ln.d, 8*(i%50))
					if msg := planOrShed(client, url); msg != "" {
						failed.Add(1)
						firstFailure.CompareAndSwap(nil, url+": "+msg)
					}
					if completed.Add(1) == killAfter {
						nodes[0].srv.Close()
						close(killed)
					}
				}
			}(c * len(lines) / clientsPerSurvivor)
		}
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed across the owner kill; first: %v", n, completed.Load(), firstFailure.Load())
	}

	for _, base := range survivors {
		var m clusterMetricsWire
		fetch(t, base+"/metrics", &m)
		t.Logf("%s: %d peer hits, %d fallback builds, %d local builds", base,
			m.Cluster.PeerHits, m.Cluster.FallbackBuilds, m.Cache.Builds)
		if m.Cluster.PeerHits < 1 {
			t.Errorf("%s never fetched a line from a peer: the load did not exercise the fleet", base)
		}
		if m.Cluster.FallbackBuilds < 1 {
			t.Errorf("%s: peer_fallback_builds_total did not move after the owner died", base)
		}
		if breaker := m.breakerOf(victim); breaker != "open" {
			t.Errorf("%s: dead owner's breaker is %q, want open", base, breaker)
		}
	}
}

// planOrShed GETs one plan and returns "" for the two answers a loaded
// fleet may give — 200, or a 503 shed carrying Retry-After — and a
// description of anything else, transport errors included.
func planOrShed(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return err.Error()
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return ""
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		return ""
	}
	return fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

// TestFleetFaultForwarding: a fault update accepted by one replica
// reaches the others (marked forwarded, applied, not re-forwarded).
func TestFleetFaultForwarding(t *testing.T) {
	lns, urls := reserveFleet(t, 2)
	peers := strings.Join(urls, ",")
	for i := range lns {
		startFleetNode(t, options{
			machine: "ipsc860",
			self:    urls[i],
			peers:   peers,
		}, lns[i])
	}
	for _, u := range urls {
		waitReady(t, u)
	}

	body := `{"topology":"hypercube-4","action":"slow","links":[[0,1]],"factor":3}`
	resp, err := http.Post(urls[0]+"/v1/faults", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault update: %d", resp.StatusCode)
	}

	// Replica 1 now serves hypercube-4 under the forwarded fault digest.
	type healthWire struct {
		DegradedFabrics []string `json:"degraded_fabrics"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h healthWire
		fetch(t, urls[1]+"/healthz", &h)
		found := false
		for _, f := range h.DegradedFabrics {
			if f == "hypercube-4" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("forwarded fault never reached the peer replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
