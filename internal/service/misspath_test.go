package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/plancache"
)

var benchTable optimize.Table

// BenchmarkMissPath prices the two ways a fleet replica can fill a miss
// on a line it does not own, which is the rule plancache's fill applies:
// fetch only where the rebuild costs more than the hop.
//
//   - rebuild/<spec>: a fresh analytic optimizer builds the line's hull on
//     a fabric handle that is already derived — a serving process's steady
//     state, where every fabric it has seen keeps its handle.
//   - fill/<spec>: the whole miss around that build, through
//     plancache.GetForCtx — lookup, fill, build, insert, eviction — on a
//     one-line cache asked for two machines in turn, so every call misses.
//   - hop/<spec>: cluster.FetchLine plus ImportLine, against an in-process
//     owner that holds the line.
func BenchmarkMissPath(b *testing.B) {
	const machine = "ipsc860"
	ctx := context.Background()
	for _, spec := range []string{"hypercube-8", "hypercube-16", "hypercube-20", "hypercube-16!dl=0-1"} {
		b.Run("rebuild/"+spec, func(b *testing.B) {
			net, err := plancache.ResolveTopology(spec)
			if err != nil {
				b.Fatal(err)
			}
			prm := model.Machines()[machine]
			build := func() {
				benchTable, err = optimize.New(prm).BuildTableOnCtx(ctx, net, 0, plancache.DefaultSweepHi, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			build() // the handle's first derivation, which a rebuild does not pay
			b.ReportAllocs()
			for b.Loop() {
				build()
			}
		})
	}

	for _, spec := range []string{"hypercube-8", "hypercube-16"} {
		b.Run("fill/"+spec, func(b *testing.B) {
			net, err := plancache.ResolveTopology(spec)
			if err != nil {
				b.Fatal(err)
			}
			c := plancache.New(plancache.Config{Shards: 1, CapacityPerShard: 1})
			machines := [2]string{machine, "hypo"}
			get := func(i int) {
				if _, err := c.GetForCtx(ctx, machines[i%2], net, 40); err != nil {
					b.Fatal(err)
				}
			}
			get(1) // the handle's first derivation
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				get(i)
				i++
			}
			if s := c.Stats(); s.Hits != 0 {
				b.Fatalf("%d hits: every call must miss", s.Hits)
			}
		})
	}

	b.Run("hop/hypercube-16", func(b *testing.B) {
		const topo = "hypercube-16"
		net, err := plancache.ResolveTopology(topo)
		if err != nil {
			b.Fatal(err)
		}
		held := plancache.New(plancache.Config{})
		if _, err := held.WarmForCtx(ctx, machine, net); err != nil {
			b.Fatal(err)
		}
		srv, err := New(Config{Cache: held})
		if err != nil {
			b.Fatal(err)
		}
		owner := httptest.NewServer(srv.Handler())
		defer owner.Close()

		// A fetcher URL the ring places the line away from.
		var cl *cluster.Cluster
		for i := 0; cl == nil; i++ {
			c, err := cluster.New(cluster.Config{Self: fmt.Sprintf("http://fetcher-%d.invalid:1", i), Peers: []string{owner.URL}})
			if err != nil {
				b.Fatal(err)
			}
			if c.Owner(machine, topo) == owner.URL {
				cl = c
			}
		}
		fetcher := plancache.New(plancache.Config{})
		b.ReportAllocs()
		for b.Loop() {
			ld, err := cl.FetchLine(ctx, machine, topo)
			if err != nil || ld == nil {
				b.Fatalf("fetch: (%v, %v)", ld, err)
			}
			if err := fetcher.ImportLine(*ld); err != nil {
				b.Fatal(err)
			}
		}
	})
}
