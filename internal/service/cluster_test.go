package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/topology"
)

func TestReadyzGatesOnSetReady(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("starting /readyz missing Retry-After")
	}
	// Liveness must not be gated: a starting replica answers /healthz so
	// peers can probe it.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while starting: %v %v", resp.StatusCode, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	srv.SetReady(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("/readyz after SetReady: %d %q", resp.StatusCode, ready.Status)
	}
}

func TestPeerLineBuildsOnDemandAndServes(t *testing.T) {
	cache := plancache.New(plancache.Config{})
	srv, err := New(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() plancache.LineData {
		t.Helper()
		resp, err := http.Get(ts.URL + cluster.PeerLinePath + "?machine=ipsc860&topology=hypercube-4")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("peer line: %d %s", resp.StatusCode, body)
		}
		var ld plancache.LineData
		if err := json.NewDecoder(resp.Body).Decode(&ld); err != nil {
			t.Fatal(err)
		}
		return ld
	}

	ld := get()
	if ld.Machine != "ipsc860" || ld.Topology != "hypercube-4" || len(ld.Segments) == 0 {
		t.Fatalf("served line %+v", ld)
	}
	if builds := cache.Stats().Builds; builds != 1 {
		t.Fatalf("owner built %d times, want on-demand build of 1", builds)
	}
	get() // resident now: served without another build
	if builds := cache.Stats().Builds; builds != 1 {
		t.Fatalf("resident line rebuilt (%d builds)", builds)
	}

	// The served document round-trips through a second cache's import.
	other := plancache.New(plancache.Config{})
	if err := other.ImportLine(ld); err != nil {
		t.Fatalf("peer-served line rejected by import: %v", err)
	}

	resp, err := http.Get(ts.URL + cluster.PeerLinePath + "?machine=ipsc860")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing topology param: %d, want 400", resp.StatusCode)
	}
}

func TestPeerSnapshotServesResidentLines(t *testing.T) {
	cache := plancache.New(plancache.Config{})
	if _, err := cache.WarmForCtx(context.Background(), "ipsc860", topology.MustNew(3)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + cluster.PeerSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap plancache.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != plancache.SnapshotVersion {
		t.Fatalf("snapshot version %d, want %d", snap.Version, plancache.SnapshotVersion)
	}
	found := false
	for _, ld := range snap.Lines {
		if ld.Machine == "ipsc860" && ld.Topology == "hypercube-3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("warmed line missing from peer snapshot: %+v", snap.Lines)
	}
}

func TestOverloadMapsTo503WithRetryAfter(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/v1/plan?d=4&m=8", nil)
	code := srv.writeCacheError(w, r, fmt.Errorf("plancache: building x: %w", plancache.ErrOverloaded))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overload mapped to %d, want 503", code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 shed missing Retry-After")
	}
	var m MetricsResponse
	mw := httptest.NewRecorder()
	srv.handleMetrics(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.NewDecoder(mw.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Shed != 1 {
		t.Fatalf("shed_total = %d, want 1", m.Shed)
	}
}

func TestClientDisconnectMapsTo499(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	// A request whose context already ended (the client hung up) must
	// not burn a hull build; the cache surfaces ctx.Err() and the
	// handler records a 499, not a 4xx/5xx lie.
	r := httptest.NewRequest(http.MethodGet, "/v1/plan?machine=ipsc860&d=9&m=8", nil)
	ctx, cancel := context.WithCancel(r.Context())
	r = r.WithContext(ctx)
	cancel()
	w := httptest.NewRecorder()
	code := srv.handlePlan(w, r)
	if code != statusClientClosedRequest {
		t.Fatalf("cancelled request mapped to %d, want 499", code)
	}
	if srv.earlyAborts.Load() != 1 {
		t.Fatalf("early_aborts_total = %d, want 1", srv.earlyAborts.Load())
	}
	if builds := srv.cache.Stats().Builds; builds != 0 {
		t.Fatalf("cancelled request still built %d lines", builds)
	}
}

func TestFaultUpdatesForwardToPeers(t *testing.T) {
	type capture struct {
		header string
		body   string
	}
	var got atomic.Pointer[capture]
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/faults" {
			io.WriteString(w, `{"status":"ok"}`) // the health probe
			return
		}
		body, _ := io.ReadAll(r.Body)
		got.Store(&capture{header: r.Header.Get(cluster.ForwardedHeader), body: string(body)})
		io.WriteString(w, `{}`)
	}))
	defer peer.Close()

	clu, err := cluster.New(cluster.Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), Cluster: clu})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"topology":"hypercube-3","action":"slow","links":[[0,1]],"factor":2}`
	resp, err := http.Post(ts.URL+"/v1/faults", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var fr FaultsResponse
	json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faults update: %d", resp.StatusCode)
	}
	if fr.Forwarded != 1 || fr.ForwardFailed != 0 {
		t.Fatalf("forward counts (%d, %d), want (1, 0)", fr.Forwarded, fr.ForwardFailed)
	}
	c := got.Load()
	if c == nil || c.header == "" {
		t.Fatal("peer did not receive a loop-guarded forward")
	}
	if !strings.Contains(c.body, `"slow"`) {
		t.Fatalf("forwarded body %q lost the action", c.body)
	}

	// A forwarded copy must apply locally but never re-forward.
	got.Store(nil)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/faults",
		strings.NewReader(`{"topology":"hypercube-3","action":"clear"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var fr2 FaultsResponse
	json.NewDecoder(resp.Body).Decode(&fr2)
	resp.Body.Close()
	if fr2.Forwarded != 0 {
		t.Fatal("forwarded copy was re-forwarded — loop guard broken")
	}
	if got.Load() != nil {
		t.Fatal("peer received a second-hop forward")
	}
}

// A fault report is applied before it is forwarded, so a client that
// hangs up meanwhile must not stop it reaching the rest of the fleet, or
// the replicas' fault digests diverge. The first peer to be forwarded to
// holds the forward until the forwarder gives up on it; the client leaves
// during that stall, and the second peer must still receive the update
// under the client's request ID.
func TestFaultForwardOutlivesTheClient(t *testing.T) {
	var arrivals atomic.Int32
	stalled := make(chan struct{})
	second := make(chan string, 1)
	peer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/faults" {
			io.WriteString(w, `{"status":"ok"}`) // the health probe
			return
		}
		io.Copy(io.Discard, r.Body)
		if arrivals.Add(1) == 1 {
			close(stalled)
			<-r.Context().Done()
			return
		}
		second <- r.Header.Get(obs.RequestIDHeader)
		io.WriteString(w, `{}`)
	})
	p1, p2 := httptest.NewServer(peer), httptest.NewServer(peer)
	defer p1.Close()
	defer p2.Close()

	clu, err := cluster.New(cluster.Config{
		Self:         "http://self.invalid:1",
		Peers:        []string{p1.URL, p2.URL},
		FetchTimeout: 300 * time.Millisecond,
		Logger:       slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), Cluster: clu, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/faults",
		strings.NewReader(`{"topology":"hypercube-3","action":"down","links":[[2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "forward-outlives-client")
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("the update was never forwarded")
	}
	cancel()
	<-hungUp
	select {
	case id := <-second:
		if id != "forward-outlives-client" {
			t.Fatalf("forward carried request ID %q, want the client's", id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second peer never received the update after the client hung up")
	}
}

func TestMetricsCarriesClusterSection(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{}`)
	}))
	defer peer.Close()
	clu, err := cluster.New(cluster.Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), Cluster: clu})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var m MetricsResponse
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.Cluster == nil {
		t.Fatal("/metrics missing the cluster section on a clustered server")
	}
	if len(m.Cluster.Peers) != 1 || m.Cluster.Peers[0].Breaker != "closed" {
		t.Fatalf("cluster peer states: %+v", m.Cluster.Peers)
	}

	// Standalone: the section must be absent so the pre-cluster wire
	// format is bit-identical.
	alone := newTestServer(t)
	resp, err = http.Get(alone.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(raw, []byte(`"cluster"`)) {
		t.Fatal("standalone /metrics grew a cluster section")
	}
}
