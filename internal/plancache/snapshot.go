package plancache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/topology"
)

// SnapshotVersion is the wire-format version Snapshot writes and Restore
// requires. Version 1 keyed lines on (machine, d) with the hypercube
// assumed; version 2 keys them on (machine, topology), so a pre-bump
// snapshot must be rejected as stale rather than restored under the
// wrong key space.
const SnapshotVersion = 2

// SegmentData is the JSON form of one hull segment.
type SegmentData struct {
	Partition []int `json:"partition"`
	MinBlock  int   `json:"min_block"`
	MaxBlock  int   `json:"max_block"`
}

// LineData is the JSON form of one cache line, tagged with the machine
// parameters it was computed against so a restore into a cache with
// different constants rejects it as stale rather than serving wrong
// plans. It is both the snapshot element and the peer-serving wire
// format: a clustered replica answers GET /v1/peer/line with exactly
// this document, and the fetcher imports it through ImportLine under
// the same staleness rules a snapshot restore applies.
type LineData struct {
	Machine string       `json:"machine"`
	Params  model.Params `json:"params"`
	// Topology is the network registry spec the hull was enumerated for
	// ("hypercube-7", "torus-4x4x4", possibly carrying a fault digest);
	// D is its dimension count, kept for human readability.
	Topology  string        `json:"topology"`
	D         int           `json:"d"`
	SweepLo   int           `json:"sweep_lo"`
	SweepHi   int           `json:"sweep_hi"`
	SweepStep int           `json:"sweep_step"`
	Segments  []SegmentData `json:"segments"`
}

// Snapshot is the JSON envelope SnapshotTo writes, Restore reads, and
// the peer snapshot fan-out endpoint serves.
type Snapshot struct {
	Version int        `json:"version"`
	Lines   []LineData `json:"lines"`
}

// exportLocked converts a resident line to its wire form. The owning
// shard's mutex must be held.
func (c *Cache) exportLocked(ln *line) (LineData, bool) {
	prm, ok := c.cfg.Machines[ln.key.machine]
	if !ok {
		return LineData{}, false
	}
	sl := LineData{
		Machine:   ln.key.machine,
		Params:    prm,
		Topology:  ln.key.topo,
		D:         ln.net.NumDims(),
		SweepHi:   c.cfg.SweepHi,
		SweepStep: c.cfg.SweepStep,
	}
	for _, seg := range ln.table.Segments {
		sl.Segments = append(sl.Segments, SegmentData{
			Partition: append([]int(nil), seg.Part...),
			MinBlock:  seg.MinBlock,
			MaxBlock:  seg.MaxBlock,
		})
	}
	return sl, true
}

// Export collects every resident line as wire data, most recently used
// first. Lines built for degraded overlays (a fault digest in the
// topology name) are skipped when withDegraded is false: fault state is
// ephemeral runtime state, and a snapshot restore should come up
// planning for healthy fabrics, not resurrect last week's failures.
func (c *Cache) export(withDegraded bool) []LineData {
	var lines []LineData
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			ln := el.Value.(*line)
			if _, digest := topology.SplitSpec(ln.key.topo); digest != "" && !withDegraded {
				continue
			}
			if sl, ok := c.exportLocked(ln); ok {
				lines = append(lines, sl)
			}
		}
		sh.mu.Unlock()
	}
	return lines
}

// ExportLines returns every resident line as wire data, most recently
// used first, degraded-overlay lines included — the peer snapshot
// fan-out document. Unlike Snapshot, digest-keyed lines are kept: a
// replica joining a fleet mid-incident should warm the lines the fleet
// is actually serving.
func (c *Cache) ExportLines() []LineData {
	return c.export(true)
}

// ExportLine returns one resident line as wire data, bumping its LRU
// recency (a peer fetch is a use). ok is false when the line is not
// resident or its machine has left the registry.
func (c *Cache) ExportLine(machine, topo string) (LineData, bool) {
	key := lineKey{machine: machine, topo: topo}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.lines[key]
	if !ok {
		return LineData{}, false
	}
	sh.lru.MoveToFront(el)
	return c.exportLocked(el.Value.(*line))
}

// ImportLine admits one wire line (see admit) and inserts it as resident:
// a stale line — unknown machine, changed parameters, a mismatched sweep
// — is an error, not silent acceptance, so a peer running different
// constants can never poison this cache.
func (c *Cache) ImportLine(sl LineData) error {
	ln, err := c.admit(sl)
	if err != nil {
		return err
	}
	c.insert(ln)
	return nil
}

// Snapshot writes every resident non-degraded line as JSON, most
// recently used first. Counters are not serialized: a restored cache
// starts cold on stats but warm on content.
func (c *Cache) Snapshot(w io.Writer) error {
	snap := Snapshot{Version: SnapshotVersion, Lines: c.export(false)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Restore loads lines written by Snapshot into the cache. A snapshot
// from a different schema version — including the pre-topology version 1
// — is rejected outright as stale. Lines whose machine is unknown to
// this cache's registry, whose recorded parameters differ from the
// registry's (a recalibrated machine), or whose sweep does not match
// this cache's configured sweep (a line built at a different resolution
// or range would shadow the promised answers) are skipped as stale;
// malformed lines are an error. It returns how many lines were accepted
// and how many were skipped; when the snapshot holds more lines than the
// cache's capacity, accepted lines beyond it are LRU-evicted during the
// restore (Stats().Lines reports what stayed resident).
func (c *Cache) Restore(r io.Reader) (restored, skipped int, err error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return 0, 0, fmt.Errorf("plancache: decoding snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return 0, 0, fmt.Errorf("plancache: stale snapshot version %d (want %d; rebuild or delete the snapshot)",
			snap.Version, SnapshotVersion)
	}
	// Insert in reverse so the snapshot's MRU-first order is preserved
	// by the front-insertion LRU.
	for i := len(snap.Lines) - 1; i >= 0; i-- {
		ln, err := c.admit(snap.Lines[i])
		if errors.Is(err, errStale) {
			skipped++
			continue
		}
		if err != nil {
			return restored, skipped, err
		}
		c.insert(ln)
		restored++
	}
	return restored, skipped, nil
}

// errStale marks a line computed for another configuration: a machine
// this cache does not know, other machine parameters, or another sweep.
var errStale = errors.New("stale line")

// admit is the one admission rule for a line this cache did not build — a
// snapshot's, an imported one, a peer's: it must be fresh (errStale
// otherwise), its topology servable and its segments valid. It returns the
// line, keyed by the topology's canonical name on its shared handle.
func (c *Cache) admit(sl LineData) (*line, error) {
	prm, ok := c.cfg.Machines[sl.Machine]
	switch {
	case !ok:
		return nil, fmt.Errorf("plancache: %w for unknown machine %q", errStale, sl.Machine)
	case prm != sl.Params:
		return nil, fmt.Errorf("plancache: %w for %s/%s: computed under different machine parameters",
			errStale, sl.Machine, sl.Topology)
	case sl.SweepLo != 0 || sl.SweepHi != c.cfg.SweepHi || sl.SweepStep != c.cfg.SweepStep:
		return nil, fmt.Errorf("plancache: %w for %s/%s: swept [%d,%d] step %d, want [0,%d] step %d",
			errStale, sl.Machine, sl.Topology, sl.SweepLo, sl.SweepHi, sl.SweepStep, c.cfg.SweepHi, c.cfg.SweepStep)
	}
	net, err := ResolveTopology(sl.Topology)
	if err != nil {
		return nil, fmt.Errorf("plancache: line for machine %s: %w", sl.Machine, err)
	}
	tbl := optimize.Table{Topo: net.Name(), D: net.NumDims()}
	for _, seg := range sl.Segments {
		tbl.Segments = append(tbl.Segments, model.HullSegment{
			Part:     partition.Partition(append([]int(nil), seg.Partition...)),
			MinBlock: seg.MinBlock,
			MaxBlock: seg.MaxBlock,
		})
	}
	if err := tbl.Validate(); err != nil {
		return nil, fmt.Errorf("plancache: line for machine %s: %w", sl.Machine, err)
	}
	return &line{key: lineKey{machine: sl.Machine, topo: net.Name()}, net: net, table: tbl}, nil
}

// SnapshotFile writes the snapshot atomically: to a temp file in the
// target directory, then renamed over the destination, so a crash
// mid-write never truncates the previous snapshot.
func (c *Cache) SnapshotFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".plancache-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.Snapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// RestoreFile loads a snapshot from a file path.
func (c *Cache) RestoreFile(path string) (restored, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return c.Restore(f)
}
