package plancache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/topology"
)

// fetchedSpec is a line the cache still fetches from its owner: a
// faulted fabric, whose build routes around the dead link. It is cheap
// to build here all the same, so the fallback tests stay fast.
const fetchedSpec = "hypercube-4!dl=0-1"

// wireLine builds a LineData this cache's default configuration accepts
// for a line on the d-cube named by spec.
func wireLine(t *testing.T, machine, spec string, d int) LineData {
	t.Helper()
	prm, ok := model.Machines()[machine]
	if !ok {
		t.Fatalf("unknown machine %q", machine)
	}
	return LineData{
		Machine:   machine,
		Params:    prm,
		Topology:  spec,
		D:         d,
		SweepLo:   0,
		SweepHi:   DefaultSweepHi,
		SweepStep: 1,
		Segments:  []SegmentData{{Partition: []int{d}, MinBlock: 0, MaxBlock: DefaultSweepHi}},
	}
}

func TestFetchHookFillsMissWithoutBuilding(t *testing.T) {
	var fetches atomic.Int64
	c := New(Config{
		Fetch: func(_ context.Context, machine, topo string) (*LineData, error) {
			fetches.Add(1)
			ld := wireLine(t, machine, fetchedSpec, 4)
			if ld.Topology != topo {
				t.Errorf("fetch hook asked for %q, expected %s", topo, fetchedSpec)
			}
			return &ld, nil
		},
	})
	p, err := c.GetForCtx(bg, "ipsc860", mustSpec(t, fetchedSpec), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Part) != 1 || p.Part[0] != 4 {
		t.Fatalf("plan did not come from the imported line: partition %v", p.Part)
	}
	s := c.Stats()
	if fetches.Load() != 1 || s.PeerImports != 1 || s.Builds != 0 {
		t.Fatalf("fetches %d, imports %d, builds %d — want the hook to fill the miss",
			fetches.Load(), s.PeerImports, s.Builds)
	}
	// A resident line never consults the hook again.
	if _, err := c.GetForCtx(bg, "ipsc860", mustSpec(t, fetchedSpec), 64); err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != 1 {
		t.Fatal("hit consulted the fetch hook")
	}
}

func TestFetchFailureFallsBackToLocalBuild(t *testing.T) {
	c := New(Config{
		Fetch: func(context.Context, string, string) (*LineData, error) {
			return nil, errors.New("owner unreachable")
		},
	})
	if _, err := c.GetForCtx(bg, "ipsc860", mustSpec(t, fetchedSpec), 32); err != nil {
		t.Fatalf("failed fetch was not recovered by a local build: %v", err)
	}
	s := c.Stats()
	if s.Builds != 1 || s.PeerImports != 0 {
		t.Fatalf("builds %d, imports %d — want exactly one fallback build", s.Builds, s.PeerImports)
	}
}

func TestFetchInvalidPayloadFallsBackToLocalBuild(t *testing.T) {
	c := New(Config{
		Fetch: func(_ context.Context, machine, _ string) (*LineData, error) {
			ld := wireLine(t, machine, fetchedSpec, 4)
			ld.Params.Lambda *= 2 // a peer running different constants
			return &ld, nil
		},
	})
	if _, err := c.GetForCtx(bg, "ipsc860", mustSpec(t, fetchedSpec), 32); err != nil {
		t.Fatalf("invalid peer payload was not recovered by a local build: %v", err)
	}
	if s := c.Stats(); s.Builds != 1 || s.PeerImports != 0 {
		t.Fatalf("builds %d, imports %d — a stale peer line must not import", s.Builds, s.PeerImports)
	}
}

// TestCancelledFillDoesNotPoisonKey is the no-poison guarantee: a
// caller whose context ends mid-fill gets its context error, the
// abandoned fill is cancelled and retired, and the NEXT caller for the
// same key starts a fresh fill and succeeds.
func TestCancelledFillDoesNotPoisonKey(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	c := New(Config{
		Fetch: func(ctx context.Context, _, _ string) (*LineData, error) {
			if calls.Add(1) == 1 {
				close(release) // the first caller is now inside the fill
				<-ctx.Done()   // block until the abandoned flight is cancelled
				return nil, ctx.Err()
			}
			return nil, nil // decline: build locally
		},
	})

	net := mustSpec(t, fetchedSpec)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.GetForCtx(ctx, "ipsc860", net, 32)
		errc <- err
	}()
	recvWithin(t, release, "the first caller never reached the fetch")
	cancel()
	if err := recvWithin(t, errc, "the cancelled caller never returned"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}

	// The key must not be poisoned: a fresh caller succeeds.
	done := make(chan error, 1)
	go func() {
		_, err := c.GetForCtx(bg, "ipsc860", net, 32)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fresh caller after cancelled fill: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fresh caller hung — cancelled fill poisoned the key")
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Fatalf("builds %d, want 1 (the fresh caller's)", s.Builds)
	}
}

// TestJoinerSurvivesInitiatorCancel: the initiating caller departs but
// a second waiter remains — the fill must keep running and answer the
// survivor.
func TestJoinerSurvivesInitiatorCancel(t *testing.T) {
	inFetch := make(chan struct{})
	release := make(chan struct{})
	c := New(Config{
		Fetch: func(ctx context.Context, _, _ string) (*LineData, error) {
			close(inFetch)
			select {
			case <-release:
				return nil, nil // decline: build locally
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})

	net := mustSpec(t, fetchedSpec)
	initiatorCtx, cancelInitiator := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := c.GetForCtx(initiatorCtx, "ipsc860", net, 32)
		initiatorErr <- err
	}()
	recvWithin(t, inFetch, "the initiator never reached the fetch")

	joinerErr := make(chan error, 1)
	go func() {
		_, err := c.GetForCtx(bg, "ipsc860", net, 32)
		joinerErr <- err
	}()
	// Give the joiner a moment to join the in-progress flight, then
	// abandon it from the initiator's side.
	time.Sleep(20 * time.Millisecond)
	cancelInitiator()
	if err := recvWithin(t, initiatorErr, "the initiator never returned"); !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator got %v, want context.Canceled", err)
	}
	close(release)
	if err := recvWithin(t, joinerErr, "the joiner never returned"); err != nil {
		t.Fatalf("joiner was killed by the initiator's cancel: %v", err)
	}
}

// TestRetryAfterAbandonedFlightCountsOneMiss: a caller that joins a fill
// its initiator already abandoned retries once the fill dies of that
// cancellation and builds the line itself — one call, one miss.
func TestRetryAfterAbandonedFlightCountsOneMiss(t *testing.T) {
	var calls atomic.Int64
	inFetch := make(chan struct{})
	var c *Cache
	c = New(Config{
		Fetch: func(ctx context.Context, _, _ string) (*LineData, error) {
			if calls.Add(1) > 1 {
				return nil, nil // the retry's fill: decline, build locally
			}
			close(inFetch)
			<-ctx.Done() // the initiator departs: the fill is abandoned
			for c.Stats().Misses < 2 {
				time.Sleep(time.Millisecond) // until the joiner is in
			}
			return nil, ctx.Err()
		},
	})

	net := mustSpec(t, fetchedSpec)
	ctx, cancel := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := c.GetForCtx(ctx, "ipsc860", net, 32)
		initiatorErr <- err
	}()
	recvWithin(t, inFetch, "the initiator never reached the fetch")
	cancel()
	if err := recvWithin(t, initiatorErr, "the initiator never returned"); !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator got %v, want context.Canceled", err)
	}

	joinerErr := make(chan error, 1)
	go func() {
		_, err := c.GetForCtx(bg, "ipsc860", net, 32)
		joinerErr <- err
	}()
	if err := recvWithin(t, joinerErr, "the joiner never returned"); err != nil {
		t.Fatalf("joiner of an abandoned fill: %v", err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 || s.Builds != 1 || calls.Load() != 2 {
		t.Fatalf("misses=%d hits=%d builds=%d fetches=%d, want 2 misses for two calls, 0 hits, 1 build, 2 fetches",
			s.Misses, s.Hits, s.Builds, calls.Load())
	}
}

// TestFetchOnlyWhereBuildCostsMoreThanHop pins which misses consult the
// owner: a line whose build replays or routes around faults is fetched,
// a healthy analytic line — microseconds to rebuild — never is.
func TestFetchOnlyWhereBuildCostsMoreThanHop(t *testing.T) {
	fetches := make(map[string]int)
	var mu sync.Mutex
	declineCounting := func(_ context.Context, _, topo string) (*LineData, error) {
		mu.Lock()
		fetches[topo]++
		mu.Unlock()
		return nil, nil // decline: build locally
	}
	fetchesOf := func(topo string) int {
		mu.Lock()
		defer mu.Unlock()
		return fetches[topo]
	}
	analytic := New(Config{Fetch: declineCounting})
	get := func(c *Cache, net topology.Network) {
		t.Helper()
		if _, err := c.GetForCtx(bg, "ipsc860", net, 32); err != nil {
			t.Fatal(err)
		}
	}

	// A healthy analytic line is built here, once, and never fetched.
	get(analytic, mustCube(t, 5))
	get(analytic, mustCube(t, 5))
	if n, s := fetchesOf("hypercube-5"), analytic.Stats(); n != 0 || s.Builds != 1 {
		t.Fatalf("healthy analytic line: %d fetches, %d builds — want 0, 1", n, s.Builds)
	}

	// A faulted analytic line is fetched first.
	get(analytic, mustSpec(t, fetchedSpec))
	if n, s := fetchesOf(fetchedSpec), analytic.Stats(); n != 1 || s.Builds != 2 {
		t.Fatalf("faulted analytic line: %d fetches, %d builds — want 1, 2", n, s.Builds)
	}

	// A healthy line whose build replays is fetched first.
	simulated := New(Config{Fetch: declineCounting, NewOptimizer: optimize.NewSimulated, SweepHi: 16, SweepStep: 8})
	get(simulated, mustCube(t, 3))
	if n, s := fetchesOf("hypercube-3"), simulated.Stats(); n != 1 || s.Builds != 1 {
		t.Fatalf("healthy simulated line: %d fetches, %d builds — want 1, 1", n, s.Builds)
	}
}

// recvWithin receives from ch, failing the test with what instead of
// hanging when nothing arrives within ten seconds.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal(what)
		panic("unreachable")
	}
}

func TestShedBeyondBuildBound(t *testing.T) {
	c := New(Config{MaxConcurrentBuilds: 1})
	// Occupy the single build slot as a stuck build would.
	c.buildSem <- struct{}{}
	_, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 4), 32)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss beyond the build bound: %v, want ErrOverloaded", err)
	}
	if s := c.Stats(); s.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", s.Shed)
	}
	// Slot frees: the same miss now builds.
	<-c.buildSem
	if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 4), 32); err != nil {
		t.Fatalf("miss after the slot freed: %v", err)
	}
}

// TestInvalidateWarmGetChurn exercises InvalidateWhere and WarmFor
// racing against Get traffic — run under -race this is the regression
// net for shard-lock discipline.
func TestInvalidateWarmGetChurn(t *testing.T) {
	c := New(Config{Shards: 2, CapacityPerShard: 2, SweepHi: 32})
	nets := []topology.Network{mustCube(t, 3), mustCube(t, 4), mustCube(t, 5)}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				net := nets[(i+w)%len(nets)]
				if _, err := c.GetForCtx(bg, "ipsc860", net, 16); err != nil {
					t.Errorf("GetFor under churn: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.WarmForCtx(bg, "ipsc860", nets[i%len(nets)]); err != nil {
				t.Errorf("WarmFor under churn: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := nets[i%len(nets)].Name()
			c.InvalidateWhere(func(_, topo string) bool { return topo == victim })
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

var bg = context.Background()

func mustCube(t *testing.T, d int) topology.Network {
	t.Helper()
	net, err := topology.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// mustSpec resolves a registry spec the way the serving tier does before
// it asks the cache.
func mustSpec(t testing.TB, spec string) topology.Network {
	t.Helper()
	net, err := ResolveTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// A non-operational fabric — a dead node, or dead links that sever the
// live graph — is refused at validation on every entry point, with the
// typed unroutable error: it is never fetched from a peer, never missed
// and never built, and ResolveTopology refuses its spec the same way.
func TestNonOperationalFabricNeverFetched(t *testing.T) {
	var fetches atomic.Int64
	c := New(Config{Fetch: func(context.Context, string, string) (*LineData, error) {
		fetches.Add(1)
		return nil, nil
	}})
	severed, err := topology.Overlay(mustCube(t, 1), topology.FaultSet{DeadLinks: []topology.Link{{A: 0, B: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	deadNode, err := topology.Resolve("torus-4x4!dn=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []topology.Network{severed, deadNode} {
		_, getErr := c.GetForCtx(bg, "ipsc860", net, 32)
		_, hullErr := c.HullForCtx(bg, "ipsc860", net)
		_, warmErr := c.WarmForCtx(bg, "ipsc860", net)
		for _, err := range []error{getErr, hullErr, warmErr} {
			var be *BuildError
			if !errors.Is(err, topology.ErrUnroutable) || errors.As(err, &be) {
				t.Errorf("%s: %v, want a validation error wrapping ErrUnroutable", net.Name(), err)
			}
		}
		if _, err := ResolveTopology(net.Name()); !errors.Is(err, topology.ErrUnroutable) {
			t.Errorf("ResolveTopology(%s) = %v, want ErrUnroutable", net.Name(), err)
		}
	}
	if n, s := fetches.Load(), c.Stats(); n != 0 || s.Misses != 0 || s.Builds != 0 {
		t.Fatalf("non-operational fabrics: %d fetches, %d misses, %d builds — want 0, 0, 0", n, s.Misses, s.Builds)
	}
}
