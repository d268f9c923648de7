package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"
)

// request is one generated operation against a daemon of the fleet.
type request struct {
	name    string // span name, e.g. "GET /v1/plan"
	replica int    // index into the fleet
	path    string // with query string
	body    []byte // POST body; nil means GET
	primary bool   // latency counts toward the percentiles
	// check validates a 200 answer; it runs after the latency clock has
	// stopped.
	check func(body []byte) error
}

// Wire shapes, limited to the fields the checks read.
type planAnswer struct {
	Partition   []int   `json:"partition"`
	PredictedUS float64 `json:"predicted_us"`
}

type batchAnswer struct {
	Results []struct {
		Plan  *planAnswer `json:"plan"`
		Error string      `json:"error"`
	} `json:"results"`
}

type segment struct {
	Partition []int `json:"partition"`
	MinBlock  int   `json:"min_block"`
	MaxBlock  int   `json:"max_block"`
}

type hullAnswer struct {
	Segments []segment `json:"segments"`
}

type costAnswer struct {
	PredictedUS       float64 `json:"predicted_us"`
	SimulatedUS       float64 `json:"simulated_us"`
	ContentionStallUS float64 `json:"contention_stall_us"`
}

// checkPlan is the invariant every /v1/plan answer must satisfy: the
// partition groups all of the topology's dimensions and the predicted
// time is positive.
func checkPlan(a *planAnswer, dims int) error {
	sum := 0
	for _, g := range a.Partition {
		sum += g
	}
	if sum != dims {
		return fmt.Errorf("partition %v sums to %d, want %d dimensions", a.Partition, sum, dims)
	}
	if !(a.PredictedUS > 0) {
		return fmt.Errorf("predicted_us = %v, want > 0", a.PredictedUS)
	}
	return nil
}

// relDiff is |a−b| relative to |b| (absolute when b is 0).
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// conn is one closed-loop client connection: requests on it are strictly
// sequential, so each daemon sees at most one of its requests in flight.
//
// It speaks HTTP/1.1 over one kept-alive socket per replica from the
// calling goroutine alone. net/http's Transport hands every request
// through two more goroutines per socket, which on this two-core box cost
// the generator as much CPU as the daemon spent serving and put three
// scheduler hand-offs inside every measured latency.
type conn struct {
	ctx   context.Context
	socks []*sock // by replica index, dialled on first use
	ref   *sock   // the reference server, when the fleet has one
	buf   bytes.Buffer
	st    *runState
}

type sock struct {
	host string
	c    net.Conn
	br   *bufio.Reader
	stop func() bool // detaches the context watcher
}

func newConn(ctx context.Context, f *fleet, st *runState) *conn {
	c := &conn{ctx: ctx, st: st}
	for _, d := range f.daemons {
		c.socks = append(c.socks, &sock{host: strings.TrimPrefix(d.base, "http://")})
	}
	if f.ref != nil {
		c.ref = &sock{host: strings.TrimPrefix(f.ref.base, "http://")}
	}
	return c
}

func (c *conn) close() {
	for _, s := range c.socks {
		s.hangUp()
	}
	if c.ref != nil {
		c.ref.hangUp()
	}
}

func (s *sock) hangUp() {
	if s.c != nil {
		s.stop()
		s.c.Close()
		s.c = nil
	}
}

// dial opens the socket. Cancelling ctx fails any read or write blocked on
// it, so a stopped run never waits out a long build.
func (s *sock) dial(ctx context.Context) error {
	c, err := (&net.Dialer{}).DialContext(ctx, "tcp", s.host)
	if err != nil {
		return err
	}
	s.c, s.br = c, bufio.NewReader(c)
	s.stop = context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	return nil
}

// do sends one request and reads the whole answer. The returned body is
// valid until the next call. requestID is the daemon's echoed
// X-Pland-Request-Id.
func (c *conn) do(r *request) (status int, body []byte, requestID string, err error) {
	s := c.ref
	if r.replica != refReplica {
		s = c.socks[r.replica]
	}
	if s.c == nil {
		if err := s.dial(c.ctx); err != nil {
			return 0, nil, "", err
		}
	}
	defer func() {
		if err != nil {
			s.hangUp() // the next request on this replica starts a fresh socket
		}
	}()
	c.buf.Reset()
	if r.body == nil {
		fmt.Fprintf(&c.buf, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", r.path, s.host)
	} else {
		fmt.Fprintf(&c.buf, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			r.path, s.host, len(r.body))
		c.buf.Write(r.body)
	}
	if _, err := s.c.Write(c.buf.Bytes()); err != nil {
		return 0, nil, "", err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return 0, nil, "", err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, "", err
	}
	if resp.Close {
		s.hangUp()
	}
	return resp.StatusCode, c.buf.Bytes(), resp.Header.Get("X-Pland-Request-Id"), nil
}

// run performs one operation end to end: send, time, classify, check,
// and — in a traced run — record the client-side span.
func (c *conn) run(r *request, windowStart time.Time, rec *recorder, track string) op {
	t0 := time.Now()
	status, body, id, err := c.do(r)
	t1 := time.Now()
	var checkErr error
	if err == nil && status == http.StatusOK && r.check != nil {
		checkErr = r.check(body)
	}
	rec.add(r.name, track, -1, id, t0, t1)
	fail := classify(err, status, checkErr)
	switch {
	case fail == failWrong:
		c.st.noteWrong(fmt.Errorf("%s %s: %w", r.name, r.path, checkErr))
	case err != nil:
		c.st.noteFailure(fmt.Sprintf("%s %s: %v", r.name, r.path, err))
	case fail != "":
		c.st.noteFailure(fmt.Sprintf("%s %s: status %d: %s", r.name, r.path, status, bytes.TrimSpace(body)))
	}
	return op{done: t1.Sub(windowStart), latency: t1.Sub(t0), fail: fail, primary: r.primary, ref: r.replica == refReplica}
}

// getJSON fetches one document outside any measured window (readiness
// probes, scrapes, pinned probes).
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the message
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
