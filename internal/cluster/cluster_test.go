package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/plancache"
)

// testLine builds a LineData the default registry's cache will accept.
func testLine(t *testing.T, machine, topo string, d int) plancache.LineData {
	t.Helper()
	prm, ok := model.Machines()[machine]
	if !ok {
		t.Fatalf("unknown test machine %q", machine)
	}
	return plancache.LineData{
		Machine:   machine,
		Params:    prm,
		Topology:  topo,
		D:         d,
		SweepLo:   0,
		SweepHi:   plancache.DefaultSweepHi,
		SweepStep: 1,
		Segments: []plancache.SegmentData{
			{Partition: []int{d}, MinBlock: 0, MaxBlock: plancache.DefaultSweepHi},
		},
	}
}

// cubeOwnedBy finds a hypercube dimension whose line key the given
// member owns under the ring.
func cubeOwnedBy(t *testing.T, r *Ring, machine, member string) (string, int) {
	t.Helper()
	for d := 2; d <= 40; d++ {
		topo := fmt.Sprintf("hypercube-%d", d)
		if r.Owner(LineKey(machine, topo)) == member {
			return topo, d
		}
	}
	t.Fatalf("no hypercube line owned by %s in 40 tries", member)
	return "", 0
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1/"}}); err == nil {
		t.Error("self-only peer set accepted")
	}
	if _, err := New(Config{Self: "ftp://a:1", Peers: []string{"http://b:1"}}); err == nil {
		t.Error("non-http self URL accepted")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"not a url://"}}); err == nil {
		t.Error("bad peer URL accepted")
	}
	c, err := New(Config{Self: "http://a:1/", Peers: []string{"http://b:1/", "http://b:1", "http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a:1" {
		t.Errorf("self not normalized: %q", c.Self())
	}
	if members := c.Ring().Members(); len(members) != 2 {
		t.Errorf("dup/self peers not deduped: ring members %v", members)
	}
}

func TestFetchLineDeclinesSelfOwnedKeys(t *testing.T) {
	c, err := New(Config{Self: "http://a:1", Peers: []string{"http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", "http://a:1")
	ld, err := c.FetchLine(context.Background(), "ipsc860", topo)
	if ld != nil || err != nil {
		t.Fatalf("self-owned key: got (%v, %v), want (nil, nil) decline", ld, err)
	}
	if m := c.Metrics(); m.PeerHits != 0 || m.PeerFetchFailures != 0 {
		t.Fatalf("decline moved counters: %+v", m)
	}
}

func TestFetchRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	var served plancache.LineData
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerLinePath {
			http.NotFound(w, r)
			return
		}
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		served = testLine(t, "ipsc860", r.URL.Query().Get("topology"), 3)
		json.NewEncoder(w).Encode(served)
	}))
	defer peer.Close()

	c, err := New(Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{peer.URL},
		FetchAttempts: 3,
		FetchBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)
	ld, err := c.FetchLine(context.Background(), "ipsc860", topo)
	if err != nil {
		t.Fatalf("fetch failed despite a retry budget of 3: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", calls.Load())
	}
	if ld.Topology != served.Topology || ld.Machine != "ipsc860" {
		t.Fatalf("fetched line %+v does not match served %+v", ld, served)
	}
	m := c.Metrics()
	if m.PeerHits != 1 || m.PeerFetchFailures != 0 || m.FallbackBuilds != 0 {
		t.Fatalf("counters after retried success: %+v", m)
	}
	if st := c.PeerStates(); st[0].Breaker != breakerClosed {
		t.Fatalf("breaker %s after success, want closed", st[0].Breaker)
	}
}

func TestFetchExhaustionTripsBreakerThenRecovers(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(testLine(t, "ipsc860", r.URL.Query().Get("topology"), 3))
	}))
	defer peer.Close()

	clk := &fakeClock{t: time.Unix(0, 0)}
	c, err := New(Config{
		Self:             "http://self.invalid:1",
		Peers:            []string{peer.URL},
		FetchAttempts:    2,
		FetchBackoff:     time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		now:              clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)

	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err == nil {
		t.Fatal("fetch from a broken peer succeeded")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want the full 2-attempt budget", got)
	}
	if st := c.PeerStates(); st[0].Breaker != breakerOpen || st[0].BreakerTrips != 1 {
		t.Fatalf("breaker %+v after exhausted budget, want open with 1 trip", st[0])
	}

	// While open, fetches fail instantly without touching the peer.
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err == nil ||
		!strings.Contains(err.Error(), "breaker is open") {
		t.Fatalf("open breaker did not fail fast: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("open breaker let a request through (%d calls)", got)
	}
	m := c.Metrics()
	if m.PeerFetchFailures != 2 || m.FallbackBuilds != 2 {
		t.Fatalf("failure counters: %+v", m)
	}

	// Cooldown over + peer fixed: the half-open probe closes it again.
	healthy.Store(true)
	clk.advance(2 * time.Minute)
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err != nil {
		t.Fatalf("half-open probe against a healed peer failed: %v", err)
	}
	if st := c.PeerStates(); st[0].Breaker != breakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st[0].Breaker)
	}
}

func TestFetchSkipsProbedDownPeer(t *testing.T) {
	var calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer peer.Close()
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.peers[peer.URL].up.Store(false) // what the health prober does
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err == nil ||
		!strings.Contains(err.Error(), "down") {
		t.Fatalf("fetch from down peer: %v, want a down error", err)
	}
	if calls.Load() != 0 {
		t.Fatal("down peer was contacted")
	}
}

func TestFetchHonorsCallerDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer peer.Close()
	c, err := New(Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{peer.URL},
		FetchAttempts: 5,
		FetchTimeout:  10 * time.Second,
		FetchBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	began := time.Now()
	if _, err := c.FetchLine(ctx, "ipsc860", topo); err == nil {
		t.Fatal("fetch with an expired caller context succeeded")
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("fetch ignored the caller deadline for %v", took)
	}
}

// TestCancelledFetchBooksNothing: a fetch ended by its caller's own
// context says nothing about the peer and builds nothing, so it moves
// neither the breaker's streak nor the failure and fallback counters.
// Enough abandoned fetches in a row would otherwise open a healthy
// owner's breaker.
func TestCancelledFetchBooksNothing(t *testing.T) {
	// The first request blocks until its client gives up; later ones fail
	// at once, which sends the fetch into its backoff wait.
	var calls atomic.Int64
	arrived := make(chan struct{}, 2) // one per request the two fetches make
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		if calls.Add(1) == 1 {
			<-r.Context().Done()
			return
		}
		http.Error(w, "warming up", http.StatusInternalServerError)
	}))
	defer peer.Close()
	c, err := New(Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{peer.URL},
		FetchAttempts: 3,
		FetchTimeout:  10 * time.Second,
		FetchBackoff:  time.Hour, // a cancel during the backoff wait is the second case
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)

	// Cancelled while the attempt is in flight.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.FetchLine(ctx, "ipsc860", topo)
		errc <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the fetch never reached the peer")
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled fetch returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fetch did not return")
	}

	// Cancelled in the backoff wait after a failed attempt.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		_, err := c.FetchLine(ctx, "ipsc860", topo)
		errc <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the second fetch never reached the peer")
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fetch cancelled in backoff returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch cancelled in backoff did not return")
	}

	st := c.PeerStates()[0]
	if st.ConsecutiveFailures != 0 || st.Breaker != breakerClosed {
		t.Fatalf("peer after cancelled fetches: streak %d, breaker %s — want 0, closed", st.ConsecutiveFailures, st.Breaker)
	}
	if m := c.Metrics(); m.PeerFetchFailures != 0 || m.FallbackBuilds != 0 {
		t.Fatalf("cancelled fetches counted: failures %d, fallback builds %d — want 0, 0", m.PeerFetchFailures, m.FallbackBuilds)
	}
}

func TestProbeFlipsPeerState(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "dead", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, `{"status":"ok"}`)
	}))
	defer peer.Close()
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	p := c.peers[peer.URL]
	p.breaker.failure() // leftover failure streak from the peer's past life

	c.probe(context.Background(), p)
	if !p.up.Load() {
		t.Fatal("healthy peer probed down")
	}
	healthy.Store(false)
	c.probe(context.Background(), p)
	if p.up.Load() {
		t.Fatal("broken peer probed up")
	}
	healthy.Store(true)
	c.probe(context.Background(), p)
	if !p.up.Load() {
		t.Fatal("healed peer probed down")
	}
	if _, fails, _ := p.breaker.snapshot(); fails != 0 {
		t.Fatalf("down→up transition did not reset the breaker (fails %d)", fails)
	}
}

func TestForwardFaultsMarksAndSkips(t *testing.T) {
	type seen struct {
		header string
		body   string
	}
	var got atomic.Pointer[seen]
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got.Store(&seen{header: r.Header.Get(ForwardedHeader), body: string(body)})
		io.WriteString(w, `{}`)
	}))
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("down peer received a forward")
	}))
	defer dead.Close()

	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{live.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.peers[dead.URL].up.Store(false)

	body := []byte(`{"topology":"hypercube-3","action":"clear"}`)
	forwarded, failed := c.ForwardFaults(context.Background(), body)
	if forwarded != 1 || failed != 1 {
		t.Fatalf("ForwardFaults = (%d, %d), want (1, 1)", forwarded, failed)
	}
	s := got.Load()
	if s == nil || s.header == "" {
		t.Fatal("forward missing the loop-guard header")
	}
	if s.body != string(body) {
		t.Fatalf("forward body %q, want %q", s.body, body)
	}
	m := c.Metrics()
	if m.FaultForwards != 1 || m.FaultForwardFailures != 1 {
		t.Fatalf("forward counters: %+v", m)
	}
}

func TestWarmOwnedImportsOnlyOwnedLines(t *testing.T) {
	var self string // filled once the cluster is built
	// The peer serves two lines; only the self-owned one must import.
	var ownedTopo, peerTopo string
	var ownedD, peerD int
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerSnapshotPath {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(plancache.Snapshot{
			Version: plancache.SnapshotVersion,
			Lines: []plancache.LineData{
				testLine(t, "ipsc860", ownedTopo, ownedD),
				testLine(t, "ipsc860", peerTopo, peerD),
			},
		})
	}))
	defer peer.Close()

	self = "http://self.invalid:1"
	c, err := New(Config{Self: self, Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ownedTopo, ownedD = cubeOwnedBy(t, c.Ring(), "ipsc860", self)
	peerTopo, peerD = cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)

	cache := plancache.New(plancache.Config{})
	imported, err := c.WarmOwned(context.Background(), cache)
	if err != nil {
		t.Fatalf("WarmOwned: %v", err)
	}
	if imported != 1 {
		t.Fatalf("imported %d lines, want exactly the self-owned one", imported)
	}
	if _, ok := cache.ExportLine("ipsc860", ownedTopo); !ok {
		t.Errorf("owned line %s not resident after warm", ownedTopo)
	}
	if _, ok := cache.ExportLine("ipsc860", peerTopo); ok {
		t.Errorf("peer-owned line %s imported — ownership filter not applied", peerTopo)
	}
	if m := c.Metrics(); m.WarmedLines != 1 {
		t.Fatalf("warmed_lines_total = %d, want 1", m.WarmedLines)
	}
}
