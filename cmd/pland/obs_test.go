package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// tracesWire mirrors the /debug/traces fields this test asserts.
type tracesWire struct {
	Traces []struct {
		ID    string `json:"id"`
		Name  string `json:"name"`
		Spans []struct {
			Name  string `json:"name"`
			Attrs []struct {
				Key   string `json:"key"`
				Value string `json:"value"`
			} `json:"attrs"`
		} `json:"spans"`
	} `json:"traces"`
}

// waitTrace polls one replica's /debug/traces until a trace with the
// given request ID commits, returning it.
func waitTrace(t *testing.T, base, id string) tracesWire {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var tw tracesWire
		fetch(t, base+"/debug/traces?id="+id, &tw)
		if len(tw.Traces) > 0 {
			return tw
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never committed a trace for %s", base, id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetRequestIDSpansReplicas is the cross-replica tracing
// acceptance path: one client request ID, supplied to the fetching
// replica, shows up on BOTH sides of a peer-served line — the fetcher's
// trace carries the peer_fetch stage, the owner's trace of the incoming
// line request carries the build, and both are addressable by the same
// ID on their respective /debug/traces.
func TestFleetRequestIDSpansReplicas(t *testing.T) {
	lns, urls := reserveFleet(t, 2)
	peers := strings.Join(urls, ",")
	for i := range lns {
		startFleetNode(t, options{
			machine:   "ipsc860",
			backend:   "simulated", // a line the ring still fetches: its build replays
			sweepHi:   64,
			sweepStep: 16,
			self:      urls[i],
			peers:     peers,
		}, lns[i])
	}
	for _, u := range urls {
		waitReady(t, u)
	}

	// The hypercube-3 line's owner builds it and the other replica must
	// fetch it; which replica owns it hangs off the OS-assigned ports.
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	const d = 3
	owner, fetcher := ring.Owner(cluster.LineKey("ipsc860", fmt.Sprintf("hypercube-%d", d))), urls[0]
	if fetcher == owner {
		fetcher = urls[1]
	}

	const id = "fleet-trace-0001"
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=%d&m=40", fetcher, d), nil)
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-served plan: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("fetcher echoed request ID %q, want %q", got, id)
	}

	// The fetcher's trace: the plan request with a peer_fetch stage that
	// hit the owner.
	ft := waitTrace(t, fetcher, id)
	var peerOutcome string
	for _, tr := range ft.Traces {
		for _, sp := range tr.Spans {
			if sp.Name != "peer_fetch" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "outcome" {
					peerOutcome = a.Value
				}
			}
		}
	}
	if peerOutcome != "hit" {
		t.Fatalf("fetcher trace has no successful peer_fetch span (outcome %q)", peerOutcome)
	}

	// The owner's trace: the SAME request ID arrived on the line fetch
	// (propagated via the X-Pland-Request-Id header across the hop) and
	// covers the on-demand build.
	ot := waitTrace(t, owner, id)
	foundLine, foundBuild := false, false
	for _, tr := range ot.Traces {
		if tr.Name == cluster.PeerLinePath {
			foundLine = true
		}
		for _, sp := range tr.Spans {
			if sp.Name == "build" {
				foundBuild = true
			}
		}
	}
	if !foundLine {
		t.Errorf("owner has no %s trace under the client's request ID", cluster.PeerLinePath)
	}
	if !foundBuild {
		t.Error("owner's trace of the peer line request is missing the build span")
	}
}
