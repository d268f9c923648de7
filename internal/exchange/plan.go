package exchange

import (
	"fmt"
	"math"

	"repro/internal/partition"
	"repro/internal/topology"
)

// Phase describes one partial exchange of a multiphase plan: the
// dimension field of the node label it operates on and the derived sizes.
// On a hypercube the field is a bit range; on a torus or mesh it is a
// mixed-radix digit range.
type Phase struct {
	// SubcubeDim is d_i, the number of topology dimensions in the
	// phase's group (the subcube dimension on a hypercube).
	SubcubeDim int
	// Lo is the lowest dimension index of the field the phase exchanges
	// over (the lowest bit on a hypercube).
	Lo int
	// Span is the sub-block size: the product of the group's radices
	// (2^d_i on a hypercube). The phase runs Span−1 steps.
	Span int
	// Stride is the node-label stride of dimension Lo.
	Stride int
	// XOR reports that every radix in the group is 2, so the phase uses
	// the pairwise XOR schedule of §4.2; otherwise steps are cyclic
	// shifts of the field (send to f+j, receive from f−j, mod Span).
	XOR bool
	// EffBlocks is the superblock size in blocks, Nodes/Span.
	EffBlocks int
	// EffBytes is the superblock size in bytes, m·Nodes/Span.
	EffBytes int
}

// Plan is a fully specified multiphase complete exchange on a topology
// with block size m and dimension grouping D (paper §5.2, generalized to
// mixed-radix coordinate fields). On a d-cube the two classical
// algorithms are the extreme plans {1,1,...,1} (Standard Exchange) and
// {d} (Optimal Circuit-Switched).
type Plan struct {
	topo   topology.Network
	m      int
	part   partition.Partition
	phases []Phase
}

// MaxBufferBytes bounds m × nodes, one node's exchange buffer, so that
// every size a plan derives from its block size fits an int.
const MaxBufferBytes = math.MaxInt32

// NewPlanOn validates (topo, m, D) and precomputes the phase layout: D
// groups the topology's dimensions into consecutive fields consumed from
// the top down, as in the paper's pseudocode — the first phase uses the
// highest d_1 dimensions, and so on.
func NewPlanOn(topo topology.Network, m int, D partition.Partition) (*Plan, error) {
	if topo.Nodes() > 1<<24 {
		return nil, fmt.Errorf("exchange: %s exceeds the plan limit of 2^24 nodes", topo.Name())
	}
	if m < 0 {
		return nil, fmt.Errorf("exchange: negative block size %d", m)
	}
	if limit := MaxBufferBytes / topo.Nodes(); m > limit {
		return nil, fmt.Errorf("exchange: block size %d over the limit of %d on %s", m, limit, topo.Name())
	}
	// A complete exchange needs every node alive and the live graph
	// connected; gating here keeps the replay core's panic-free
	// contract (fault-aware AppendRoute panics on severed pairs).
	if err := topology.CheckOperational(topo); err != nil {
		return nil, fmt.Errorf("exchange: %s cannot host a complete exchange: %w", topo.Name(), err)
	}
	k := topo.NumDims()
	if k == 0 {
		if len(D) != 0 {
			return nil, fmt.Errorf("exchange: nonempty partition %v for single-node topology", D)
		}
		return &Plan{topo: topo, m: m}, nil
	}
	sum := 0
	for _, di := range D {
		if di <= 0 {
			return nil, fmt.Errorf("exchange: nonpositive phase dimension %d", di)
		}
		sum += di
	}
	if sum != k {
		return nil, fmt.Errorf("exchange: partition %v sums to %d, want %d", D, sum, k)
	}
	p := &Plan{topo: topo, m: m, part: D.Clone()}
	dims := topo.Dims()
	n := topo.Nodes()
	start := k - 1
	for _, di := range D {
		lo := start - di + 1
		span, xor := 1, true
		for i := lo; i <= start; i++ {
			span *= dims[i]
			if dims[i] != 2 {
				xor = false
			}
		}
		p.phases = append(p.phases, Phase{
			SubcubeDim: di,
			Lo:         lo,
			Span:       span,
			Stride:     topo.Stride(lo),
			XOR:        xor,
			EffBlocks:  n / span,
			EffBytes:   m * (n / span),
		})
		start = lo - 1
	}
	return p, nil
}

// NewPlan validates (d, m, D) on a binary hypercube and precomputes the
// phase layout.
func NewPlan(d, m int, D partition.Partition) (*Plan, error) {
	if d < 0 || d > 24 {
		return nil, fmt.Errorf("exchange: dimension %d out of range [0,24]", d)
	}
	if d > 0 && !D.IsValid(d) && !D.Canonical().IsValid(d) {
		return nil, fmt.Errorf("exchange: %v is not a partition of %d", D, d)
	}
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	if d == 0 {
		if len(D) != 0 {
			return nil, fmt.Errorf("exchange: nonempty partition %v for 0-cube", D)
		}
		return NewPlanOn(cube, m, nil)
	}
	return NewPlanOn(cube, m, D)
}

// NewStandardPlan returns the Standard Exchange algorithm (§4.1) as the
// degenerate plan {1,1,...,1}.
func NewStandardPlan(d, m int) (*Plan, error) {
	if d < 0 {
		return nil, fmt.Errorf("exchange: dimension %d out of range [0,24]", d)
	}
	ones := make(partition.Partition, d)
	for i := range ones {
		ones[i] = 1
	}
	return NewPlan(d, m, ones)
}

// NewOptimalPlan returns the Optimal Circuit-Switched algorithm (§4.2) as
// the degenerate plan {d}.
func NewOptimalPlan(d, m int) (*Plan, error) {
	if d == 0 {
		return NewPlan(0, m, nil)
	}
	return NewPlan(d, m, partition.Partition{d})
}

// Topology returns the network the plan is laid out for.
func (p *Plan) Topology() topology.Network { return p.topo }

// Dim returns the number of topology dimensions (the cube dimension d on
// a hypercube).
func (p *Plan) Dim() int { return p.topo.NumDims() }

// BlockSize returns the per-destination block size m in bytes.
func (p *Plan) BlockSize() int { return p.m }

// Partition returns a copy of the dimension grouping.
func (p *Plan) Partition() partition.Partition { return p.part.Clone() }

// Phases returns the phase layout.
func (p *Plan) Phases() []Phase {
	out := make([]Phase, len(p.phases))
	copy(out, p.phases)
	return out
}

// Nodes returns the topology's node count.
func (p *Plan) Nodes() int { return p.topo.Nodes() }

// String formats the plan, e.g. "multiphase{3,4} hypercube-7 m=40".
func (p *Plan) String() string {
	return fmt.Sprintf("multiphase%v %s m=%d", p.part, p.topo.Name(), p.m)
}

// field returns node p's digit value in the phase's dimension field.
func (ph Phase) field(p int) int { return (p / ph.Stride) % ph.Span }

// withField returns p with its field value replaced by f.
func (ph Phase) withField(p, f int) int { return p + (f-ph.field(p))*ph.Stride }

// partner returns the peer of node p in step j of an XOR phase: the
// subcube-restricted Schmiermund–Seidel schedule f ← f XOR j (p XOR
// (j·2^lo) on the hypercube).
func (ph Phase) partner(p, j int) int { return ph.withField(p, ph.field(p)^j) }

// sendPeer returns the node p sends to in step j of a cyclic phase:
// field f+j mod Span.
func (ph Phase) sendPeer(p, j int) int {
	return ph.withField(p, (ph.field(p)+j)%ph.Span)
}

// recvPeer returns the node p receives from in step j of a cyclic phase:
// field f−j mod Span.
func (ph Phase) recvPeer(p, j int) int {
	return ph.withField(p, (ph.field(p)-j+ph.Span)%ph.Span)
}

// steps returns Span−1, the number of exchange steps in the phase.
func (ph Phase) steps() int { return ph.Span - 1 }

// Steps returns the complete transfer schedule of the plan, phase-major:
// element [k] is the set of simultaneous transfers of global step k. XOR
// phases are perfect matchings of exchange partners; cyclic phases are
// sub-block shift permutations. Package topology can analyze each step
// for contention under dimension-ordered routing.
func (p *Plan) Steps() [][]topology.Transfer {
	var out [][]topology.Transfer
	n := p.Nodes()
	for _, ph := range p.phases {
		for j := 1; j <= ph.steps(); j++ {
			step := make([]topology.Transfer, 0, n)
			for node := 0; node < n; node++ {
				dst := ph.partner(node, j)
				if !ph.XOR {
					dst = ph.sendPeer(node, j)
				}
				step = append(step, topology.Transfer{Src: node, Dst: dst})
			}
			out = append(out, step)
		}
	}
	return out
}

// sendPositions returns the block positions node holds that must travel
// to partner q during a phase: those whose label field matches q's field.
func (p *Plan) sendPositions(ph Phase, q int) []int {
	return p.appendFieldPositions(nil, ph, q)
}

// appendFieldPositions is sendPositions reusing dst's storage — the form
// the Execute hot loop uses so no position list is allocated per step.
func (p *Plan) appendFieldPositions(dst []int, ph Phase, q int) []int {
	return AppendDigitPositions(dst, p.Nodes(), ph.Stride, ph.Span, ph.field(q))
}

// TotalMessages returns the number of point-to-point transmissions each
// node performs: Σ (Span_i − 1).
func (p *Plan) TotalMessages() int {
	total := 0
	for _, ph := range p.phases {
		total += ph.steps()
	}
	return total
}

// TotalTraffic returns the bytes each node transmits over the whole plan:
// Σ (Span_i − 1)·m·N/Span_i.
func (p *Plan) TotalTraffic() int {
	total := 0
	for _, ph := range p.phases {
		total += ph.steps() * ph.EffBytes
	}
	return total
}
