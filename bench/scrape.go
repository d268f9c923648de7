package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// counters is the daemon's own view of its work (source D): the fields
// of pland's /metrics JSON and /debug/vars memstats the per-layer
// metrics are computed from, summed over the fleet. Every field only
// grows, so the difference of two scrapes is the work done in between.
type counters struct {
	CacheHits, CacheMisses, CacheBuilds, CacheEvictions, CachePeerImports, CacheShed float64

	ShedTotal      float64
	EndpointErrors float64 // /v1/* requests answered with a status ≥ 400

	PeerHits, PeerFetchFailures, PeerFallbackBuilds, BreakerTrips float64

	StageSumUS map[string]float64 // busy time per obs stage

	Mallocs, TotalAllocBytes, NumGC, GCPauseNS float64
}

// metricsDoc is the part of pland's /metrics JSON the scrape reads.
type metricsDoc struct {
	Cache struct {
		Hits        float64 `json:"hits"`
		Misses      float64 `json:"misses"`
		Evictions   float64 `json:"evictions"`
		Builds      float64 `json:"builds"`
		PeerImports float64 `json:"peer_imports"`
		Shed        float64 `json:"shed"`
	} `json:"cache"`
	ShedTotal float64 `json:"shed_total"`
	Cluster   *struct {
		Peers []struct {
			BreakerTrips float64 `json:"breaker_trips"`
		} `json:"peers"`
		PeerHits           float64 `json:"peer_hits_total"`
		PeerFetchFailures  float64 `json:"peer_fetch_failures_total"`
		PeerFallbackBuilds float64 `json:"peer_fallback_builds_total"`
	} `json:"cluster"`
	Endpoints map[string]struct {
		Errors float64 `json:"errors"`
	} `json:"endpoints"`
	Stages map[string]struct {
		SumUS float64 `json:"sum_us"`
	} `json:"stages"`
}

// varsDoc is the part of expvar's /debug/vars the scrape reads.
type varsDoc struct {
	Memstats struct {
		Mallocs      float64 `json:"Mallocs"`
		TotalAlloc   float64 `json:"TotalAlloc"`
		NumGC        float64 `json:"NumGC"`
		PauseTotalNs float64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

// workEndpoints are the routes whose error counts the scrape sums; the
// scrape's own /metrics requests are left out.
var workEndpoints = []string{"/v1/plan", "/v1/batch", "/v1/hull", "/v1/cost", "/v1/peer/line"}

// scrapeFleet reads every daemon's /metrics and /debug/vars.
func scrapeFleet(ctx context.Context, f *fleet) (*counters, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	c := &counters{StageSumUS: map[string]float64{}}
	for _, d := range f.daemons {
		if d.debug == "" {
			return nil, fmt.Errorf("daemon %s was started without -debug-addr", d.base)
		}
		var m metricsDoc
		if err := getJSON(ctx, hc, d.base+"/metrics", &m); err != nil {
			return nil, err
		}
		var v varsDoc
		if err := getJSON(ctx, hc, d.debug+"/debug/vars", &v); err != nil {
			return nil, err
		}
		c.CacheHits += m.Cache.Hits
		c.CacheMisses += m.Cache.Misses
		c.CacheBuilds += m.Cache.Builds
		c.CacheEvictions += m.Cache.Evictions
		c.CachePeerImports += m.Cache.PeerImports
		c.CacheShed += m.Cache.Shed
		c.ShedTotal += m.ShedTotal
		if cl := m.Cluster; cl != nil {
			c.PeerHits += cl.PeerHits
			c.PeerFetchFailures += cl.PeerFetchFailures
			c.PeerFallbackBuilds += cl.PeerFallbackBuilds
			for _, p := range cl.Peers {
				c.BreakerTrips += p.BreakerTrips
			}
		}
		for _, name := range workEndpoints {
			c.EndpointErrors += m.Endpoints[name].Errors
		}
		for name, st := range m.Stages {
			c.StageSumUS[name] += st.SumUS
		}
		c.Mallocs += v.Memstats.Mallocs
		c.TotalAllocBytes += v.Memstats.TotalAlloc
		c.NumGC += v.Memstats.NumGC
		c.GCPauseNS += v.Memstats.PauseTotalNs
	}
	return c, nil
}

// ratio is a ÷ b, 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minus returns the work done between two scrapes, c − before.
func (c *counters) minus(before *counters) counters {
	d := counters{
		CacheHits:          c.CacheHits - before.CacheHits,
		CacheMisses:        c.CacheMisses - before.CacheMisses,
		CacheBuilds:        c.CacheBuilds - before.CacheBuilds,
		CacheEvictions:     c.CacheEvictions - before.CacheEvictions,
		CachePeerImports:   c.CachePeerImports - before.CachePeerImports,
		CacheShed:          c.CacheShed - before.CacheShed,
		ShedTotal:          c.ShedTotal - before.ShedTotal,
		EndpointErrors:     c.EndpointErrors - before.EndpointErrors,
		PeerHits:           c.PeerHits - before.PeerHits,
		PeerFetchFailures:  c.PeerFetchFailures - before.PeerFetchFailures,
		PeerFallbackBuilds: c.PeerFallbackBuilds - before.PeerFallbackBuilds,
		BreakerTrips:       c.BreakerTrips - before.BreakerTrips,
		Mallocs:            c.Mallocs - before.Mallocs,
		TotalAllocBytes:    c.TotalAllocBytes - before.TotalAllocBytes,
		NumGC:              c.NumGC - before.NumGC,
		GCPauseNS:          c.GCPauseNS - before.GCPauseNS,
		StageSumUS:         map[string]float64{},
	}
	for name, us := range c.StageSumUS {
		d.StageSumUS[name] = us - before.StageSumUS[name]
	}
	return d
}

// daemonMetrics turns the counters' growth over a traced window into the
// source-D per-layer metrics. ok is the number of operations the client
// saw succeed in that window.
func daemonMetrics(ms metricSet, d counters, ok int) {
	ms.set("plancache.hit_ratio", ratio(d.CacheHits, d.CacheHits+d.CacheMisses), "ratio")
	ms.set("plancache.builds", d.CacheBuilds, "count")
	ms.set("plancache.evictions", d.CacheEvictions, "count")
	ms.set("plancache.peer_imports", d.CachePeerImports, "count")
	ms.set("plancache.shed", d.CacheShed, "count")

	reqs := float64(ok)
	ms.set("service.allocs_per_req", ratio(d.Mallocs, reqs), "count")
	ms.set("service.alloc_kb_per_req", ratio(d.TotalAllocBytes, reqs)/1024, "KB")
	ms.set("service.num_gc", d.NumGC, "count")
	ms.set("service.gc_pause_ms", d.GCPauseNS/1e6, "ms")
	ms.set("service.endpoint_errors", d.EndpointErrors, "count")
	ms.set("service.shed_total", d.ShedTotal, "count")

	// Busy time is summed over concurrent spans, so it is not wall time
	// and can exceed the window; the unit says so.
	for _, stage := range []string{"cache", "build", "optimizer", "replay", "peer_fetch"} {
		ms.set("obs.stage_"+stage+"_us", d.StageSumUS[stage], "busy_us")
	}

	ms.set("cluster.peer_hits", d.PeerHits, "count")
	ms.set("cluster.peer_fetch_failures", d.PeerFetchFailures, "count")
	ms.set("cluster.peer_fallback_builds", d.PeerFallbackBuilds, "count")
	ms.set("cluster.breaker_trips", d.BreakerTrips, "count")
}
