// Package core is the top-level entry point of the library: it ties the
// machine model, the partition optimizer, the circuit-switched network
// simulator and the executable exchange plans together behind one facade.
//
// Typical use:
//
//	sys := core.NewSystem(6, model.IPSC860())     // 64-node iPSC-860
//	res, err := sys.CompleteExchange(40)           // auto-tuned partition
//	fmt.Println(res.Partition, res.SimulatedMicros)
//
// The System chooses the optimal multiphase partition for each block size
// by enumerating the p(d) partitions of the cube dimension (§6), then
// runs the exchange once on the simulated fabric, which both moves real
// payloads (machine-checking the data movement) and measures the
// virtual-time cost on the discrete-event network simulator.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exchange"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// System is a configured machine: an interconnect topology (hypercube,
// torus or mesh) plus performance parameters. It is safe for concurrent
// use.
type System struct {
	dim  int // topology dimension count (the cube dimension on a hypercube)
	prm  model.Params
	opt  *optimize.Optimizer
	topo topology.Network

	// pc, when set, answers partition selection from the shared plan
	// cache (hull-segment lookup) instead of this System's private
	// optimizer. See UsePlanCache.
	pc        *plancache.Cache
	pcMachine string
}

// NewSystem returns a system for a d-dimensional cube with the given
// machine parameters.
func NewSystem(d int, prm model.Params) (*System, error) {
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	return NewSystemOn(cube, prm)
}

// NewSystemOn returns a system over any topology — the entry point for
// torus and mesh machines, e.g.
//
//	topo, _ := topology.ParseSpec("torus-4x4x4")
//	sys, _ := core.NewSystemOn(topo, model.IPSC860())
func NewSystemOn(topo topology.Network, prm model.Params) (*System, error) {
	if topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if topo.Nodes() > 1<<20 {
		return nil, fmt.Errorf("core: %s exceeds the system limit of 2^20 nodes", topo.Name())
	}
	return &System{dim: topo.NumDims(), prm: prm, opt: optimize.New(prm), topo: topo}, nil
}

// MustNewSystem is NewSystem, panicking on error.
func MustNewSystem(d int, prm model.Params) *System {
	s, err := NewSystem(d, prm)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of topology dimensions (the cube dimension on a
// hypercube).
func (s *System) Dim() int { return s.dim }

// Topology returns the system's interconnect.
func (s *System) Topology() topology.Network { return s.topo }

// Nodes returns the node count.
func (s *System) Nodes() int { return s.topo.Nodes() }

// Params returns the machine parameters.
func (s *System) Params() model.Params { return s.prm }

// UsePlanCache routes this System's partition selection through a shared
// plan cache under the given machine name: CompleteExchange,
// VerifiedExchange and BestPartition resolve their block size by hull-
// segment lookup (building the hull once per (machine, d) across every
// System and daemon sharing the cache) instead of enumerating on the
// System's private optimizer. The named machine's parameters must match
// the System's own, otherwise the cached plans would be answers to a
// different question.
func (s *System) UsePlanCache(pc *plancache.Cache, machine string) error {
	if pc == nil {
		s.pc, s.pcMachine = nil, ""
		return nil
	}
	// Resolve through the cache itself, so a machine the cache cannot
	// serve is rejected here rather than on every later request.
	name, prm, err := pc.Resolve(machine)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if prm != s.prm {
		return fmt.Errorf("core: plan cache machine %q has different parameters than this System", machine)
	}
	s.pc, s.pcMachine = pc, name
	return nil
}

// bestPartition picks the partition for a block size: from the shared
// plan cache when attached, else from the private optimizer.
func (s *System) bestPartition(block int) (partition.Partition, error) {
	if s.pc != nil {
		p, err := s.pc.GetForCtx(context.Background(), s.pcMachine, s.topo, block)
		return p.Part, err
	}
	c, err := s.opt.BestOn(s.topo, block)
	if err != nil {
		return nil, err
	}
	return c.Part, nil
}

// Result describes one complete exchange.
type Result struct {
	// Block is the per-destination block size in bytes.
	Block int
	// Partition is the multiphase partition used.
	Partition partition.Partition
	// PredictedMicros is the analytic model's time (eq. 3 summed).
	PredictedMicros float64
	// SimulatedMicros is the network simulator's makespan.
	SimulatedMicros float64
	// ContentionStall is the simulator's total circuit wait time; zero
	// for the paper's schedules.
	ContentionStall float64
	// DataVerified reports whether the run also moved real payloads with
	// the complete-exchange postcondition checked on every node. Since
	// the simulated fabric carries both data and time, every successful
	// exchange is verified.
	DataVerified bool
}

// CompleteExchange runs an auto-tuned multiphase complete exchange of the
// given block size: the optimizer picks the best partition, and one run
// on the simulated fabric both verifies the data movement and measures
// the virtual-time cost.
func (s *System) CompleteExchange(block int) (Result, error) {
	part, err := s.bestPartition(block)
	if err != nil {
		return Result{}, err
	}
	return s.ExchangeWith(block, part)
}

// ExchangeWith runs a complete exchange with an explicit partition.
func (s *System) ExchangeWith(block int, D partition.Partition) (Result, error) {
	return s.exchange(block, D, fabric.DefaultSimTimeout)
}

// VerifiedExchange is CompleteExchange with an explicit watchdog timeout
// on the data-movement half of the run. (Historically this was a second,
// separate execution on the goroutine runtime; the unified fabric now
// verifies payloads and measures time in the same run.)
func (s *System) VerifiedExchange(block int, timeout time.Duration) (Result, error) {
	part, err := s.bestPartition(block)
	if err != nil {
		return Result{}, err
	}
	return s.exchange(block, part, timeout)
}

// exchange runs one plan on a fresh simulated fabric: real payloads move
// and are verified while the discrete-event simulator prices the
// schedule.
func (s *System) exchange(block int, D partition.Partition, timeout time.Duration) (Result, error) {
	plan, err := s.newPlan(block, D)
	if err != nil {
		return Result{}, err
	}
	pred, _, err := s.prm.MultiphaseOn(s.topo, block, plan.Partition())
	if err != nil {
		return Result{}, err
	}
	fab := fabric.NewSim(simnet.New(s.topo, s.prm))
	if err := plan.RunOn(fab, timeout); err != nil {
		return Result{}, fmt.Errorf("core: exchange failed: %w", err)
	}
	sim, err := fab.Result()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Block:           block,
		Partition:       plan.Partition(),
		PredictedMicros: pred,
		SimulatedMicros: sim.Makespan,
		ContentionStall: sim.ContentionStall,
		DataVerified:    true,
	}, nil
}

// BestPartition returns the optimizer's choice for a block size (served
// from the shared plan cache when one is attached).
func (s *System) BestPartition(block int) (partition.Partition, error) {
	return s.bestPartition(block)
}

// Plan returns an executable plan for an explicit partition, for callers
// that want direct access to the exchange layer.
func (s *System) Plan(block int, D partition.Partition) (*exchange.Plan, error) {
	return s.newPlan(block, D)
}

func (s *System) newPlan(block int, D partition.Partition) (*exchange.Plan, error) {
	if s.dim == 0 {
		return exchange.NewPlanOn(s.topo, block, nil)
	}
	return exchange.NewPlanOn(s.topo, block, D)
}

// Predict returns the analytic multiphase time for an explicit partition.
func (s *System) Predict(block int, D partition.Partition) (float64, error) {
	if s.dim == 0 {
		return 0, nil
	}
	t, _, err := s.prm.MultiphaseOn(s.topo, block, D)
	if err != nil {
		return 0, fmt.Errorf("core: %v is not a grouping of %s: %w", D, s.topo.Name(), err)
	}
	return t, nil
}
