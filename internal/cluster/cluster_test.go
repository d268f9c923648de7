package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// openBreaker trips p's breaker the way failed calls do.
func openBreaker(c *Cluster, p *peer) {
	for i := 0; i < c.cfg.BreakerThreshold; i++ {
		p.breaker.failure()
	}
}

// TestFetchSkipsProbedDownPeer: a peer whose breaker is open is not
// contacted; the fetch fails fast into the local fallback.
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
	openBreaker(c, c.peers[peer.URL])
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err == nil ||
		!strings.Contains(err.Error(), "breaker is open") {
		t.Fatalf("fetch from a peer with an open breaker: %v, want a breaker error", err)
	}
	if calls.Load() != 0 {
		t.Fatal("peer with an open breaker was contacted")
	}
	if m := c.Metrics(); m.FallbackBuilds != 1 {
		t.Fatalf("peer_fallback_builds_total = %d, want 1", m.FallbackBuilds)
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

// TestProbeFlipsPeerState: a peer's reported state is its breaker's —
// up while closed, down while open, and up again once the half-open
// probe after the cooldown succeeds.
func TestProbeFlipsPeerState(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "dead", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(testLine(t, "ipsc860", r.URL.Query().Get("topology"), 3))
	}))
	defer peer.Close()
	clk := &fakeClock{t: time.Unix(0, 0)}
	c, err := New(Config{
		Self:             "http://self.invalid:1",
		Peers:            []string{peer.URL},
		FetchAttempts:    1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		now:              clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)
	up := func() bool { return c.PeerStates()[0].Up }

	if !up() {
		t.Fatal("a new peer is reported down")
	}
	healthy.Store(false)
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err == nil {
		t.Fatal("fetch from a broken peer succeeded")
	}
	if up() {
		t.Fatal("a peer whose breaker is open is reported up")
	}
	healthy.Store(true)
	clk.advance(2 * time.Minute)
	if up() {
		t.Fatal("a peer is reported up before its half-open probe")
	}
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err != nil {
		t.Fatalf("half-open probe against a healed peer: %v", err)
	}
	if !up() {
		t.Fatal("a peer whose half-open probe succeeded is reported down")
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
		t.Error("a peer with an open breaker received a forward")
	}))
	defer dead.Close()

	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{live.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	openBreaker(c, c.peers[dead.URL])

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

// TestBreakerSharedByFetchAndForward: line fetches and fault forwards
// from many goroutines share one peer's breaker. Against a failing peer
// it trips exactly once, on the threshold-th failure in a row; calls
// whose callers cancelled book nothing; a startup fan-out books nothing;
// and after the cooldown one half-open call, from either path, decides
// for both.
func TestBreakerSharedByFetchAndForward(t *testing.T) {
	var healthy atomic.Bool
	var lineCalls, forwardCalls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PeerLinePath:
			lineCalls.Add(1)
		case faultsPath:
			forwardCalls.Add(1)
		}
		if !healthy.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		switch r.URL.Path {
		case PeerLinePath:
			json.NewEncoder(w).Encode(testLine(t, "ipsc860", r.URL.Query().Get("topology"), 3))
		case faultsPath:
			io.WriteString(w, `{}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()

	const threshold = 5
	clk := &fakeClock{t: time.Unix(0, 0)}
	c, err := New(Config{
		Self:             "http://self.invalid:1",
		Peers:            []string{peer.URL},
		FetchAttempts:    1,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Minute,
		Logger:           slog.New(slog.DiscardHandler),
		now:              clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := cubeOwnedBy(t, c.Ring(), "ipsc860", peer.URL)
	body := []byte(`{"topology":"hypercube-3","action":"clear"}`)
	state := func() PeerMetrics { return c.PeerStates()[0] }
	// call runs n calls from n goroutines, alternating between the two
	// paths, and waits for all of them.
	call := func(ctx context.Context, n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					c.FetchLine(ctx, "ipsc860", topo)
				} else {
					c.ForwardFaults(ctx, body)
				}
			}()
		}
		wg.Wait()
	}

	// One short of the threshold: still closed.
	call(context.Background(), threshold-1)
	if st := state(); st.Breaker != breakerClosed || st.ConsecutiveFailures != threshold-1 || st.BreakerTrips != 0 {
		t.Fatalf("after %d failures: %+v, want closed with the streak at %d", threshold-1, st, threshold-1)
	}

	// Calls whose callers cancelled, and a startup fan-out against the
	// failing peer, book nothing.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	call(cancelled, 2*threshold)
	if _, err := c.WarmOwned(context.Background(), plancache.New(plancache.Config{})); err == nil {
		t.Fatal("warm fan-out from a failing peer reported no error")
	}
	if st := state(); st.Breaker != breakerClosed || st.ConsecutiveFailures != threshold-1 {
		t.Fatalf("after cancelled calls and a fan-out: %+v, want closed with the streak still at %d", st, threshold-1)
	}
	// Only the two fetches among the first four calls count.
	if m := c.Metrics(); m.PeerFetchFailures != 2 || m.FallbackBuilds != 2 {
		t.Fatalf("cancelled fetches counted: failures %d, fallback builds %d, want 2 each",
			m.PeerFetchFailures, m.FallbackBuilds)
	}

	// Many concurrent failures: one trip, however many were in flight.
	call(context.Background(), 4*threshold)
	if st := state(); st.Breaker != breakerOpen || st.BreakerTrips != 1 || st.Up {
		t.Fatalf("after the threshold: %+v, want open, down, with exactly 1 trip", st)
	}
	// Open: neither path touches the peer.
	seen := lineCalls.Load() + forwardCalls.Load()
	call(context.Background(), 4*threshold)
	if got := lineCalls.Load() + forwardCalls.Load(); got != seen {
		t.Fatalf("open breaker let %d calls through", got-seen)
	}
	if st := state(); st.BreakerTrips != 1 {
		t.Fatalf("refused calls tripped the breaker again: %d trips", st.BreakerTrips)
	}

	// Cooldown over, peer still broken: the half-open forward fails and
	// re-opens the breaker for fetches too.
	clk.advance(2 * time.Minute)
	if forwarded, failed := c.ForwardFaults(context.Background(), body); forwarded != 0 || failed != 1 {
		t.Fatalf("half-open forward to a broken peer = (%d, %d), want (0, 1)", forwarded, failed)
	}
	if st := state(); st.Breaker != breakerOpen || st.BreakerTrips != 2 {
		t.Fatalf("after a failed half-open forward: %+v, want open with 2 trips", st)
	}
	seen = lineCalls.Load()
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err == nil || lineCalls.Load() != seen {
		t.Fatalf("fetch after a failed half-open forward: %v, %d calls, want refused locally", err, lineCalls.Load()-seen)
	}

	// Cooldown over, peer healed: the half-open fetch closes the breaker
	// for forwards too.
	healthy.Store(true)
	clk.advance(2 * time.Minute)
	if _, err := c.FetchLine(context.Background(), "ipsc860", topo); err != nil {
		t.Fatalf("half-open fetch against a healed peer: %v", err)
	}
	if st := state(); st.Breaker != breakerClosed || st.ConsecutiveFailures != 0 || !st.Up {
		t.Fatalf("after a successful half-open fetch: %+v, want closed and up", st)
	}
	if forwarded, failed := c.ForwardFaults(context.Background(), body); forwarded != 1 || failed != 0 {
		t.Fatalf("forward after the breaker closed = (%d, %d), want (1, 0)", forwarded, failed)
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
