package optimize

import (
	"context"
	"math"
	"sync"

	"repro/internal/model"
	"repro/internal/topology"
)

// analyticPricer costs one topology's candidates on the analytic backend,
// each distinct field once per block size.
type analyticPricer struct {
	params model.Params
	topo   topology.Network
	es     *enumSet
	cost   []float64 // per es.distinct field, at the block size last priced
}

func (o *Optimizer) newAnalyticPricer(topo topology.Network, es *enumSet) *analyticPricer {
	a := new(analyticPricer)
	a.reset(o.params, topo, es)
	return a
}

// reset points a at another topology, keeping its cost buffer.
func (a *analyticPricer) reset(params model.Params, topo topology.Network, es *enumSet) {
	*a = analyticPricer{params: params, topo: topo, es: es, cost: resized(a.cost, len(es.distinct))}
}

// resized returns buf with length n and every element zero, allocating
// only when its capacity is short of n.
func resized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// envelopeScratch is the working memory of one envelopeTable call — the
// pricer's costs, the field and candidate lines, the segments as the walk
// finds them — kept in a pool so an analytic build allocates only the
// Table it returns.
type envelopeScratch struct {
	pricer                                       analyticPricer
	fieldSlope, fieldIntercept, slope, intercept []float64
	segs                                         []envelopeSegment
}

// envelopeSegment is a table segment before it is copied out: winner is
// the index of its grouping in the enumeration.
type envelopeSegment struct{ winner, lo, hi int }

var envelopeScratchPool = sync.Pool{New: func() any { return new(envelopeScratch) }}

// winner returns the grouping the enumeration selects at block size m and
// its cost: each candidate's cost is the left-to-right sum of its phases'
// PhaseCostOn values — bit-identical to MultiphaseOn — and the lowest
// wins, then the fewest phases, then enumeration order. This is the
// arithmetic every analytic answer is settled by, BestOn's and
// each segment boundary of a table.
func (a *analyticPricer) winner(m int) (best int, t float64, err error) {
	for k, f := range a.es.distinct {
		if a.cost[k], err = a.params.PhaseCostOn(a.topo, m, f[0], f[1]); err != nil {
			return 0, 0, err
		}
	}
	best = -1
	for i, phases := range a.es.phase {
		total := 0.0
		for _, k := range phases {
			total += a.cost[k]
		}
		if best < 0 || total < t || (total == t && len(phases) < len(a.es.phase[best])) {
			best, t = i, total
		}
	}
	return best, t, nil
}

// envelopeMargin is the relative gap by which one candidate's line must
// lie below another's before the envelope calls it the winner without
// pricing the block size. A cost as winner computes it and the same cost
// read off its line (model.PhaseLineOn) are both sums of non-negative
// terms, so each is within rounding of the real-number cost — an ulp or so
// per term summed, under 1.5e-10 even for the 2^20 steps of the largest
// phase the optimizer accepts — and a line that leads by more than this
// margin leads in winner's arithmetic too.
const envelopeMargin = 1e-9

// envelopeTable is the analytic backend's table build. Every candidate's
// cost is affine in the block size, so the hull of optimality is the lower
// envelope of p(d) straight lines and changes hands only near their
// crossings. From a lattice point priced by winner, leadsUntil gives the
// stretch over which the winner's line stays clear of every other by
// envelopeMargin; the lattice points inside it are the winner's without
// being priced, and the walk resumes at the first one beyond it. Where
// lines are closer than the margin — around a crossing, at exact ties, or
// everywhere if two candidates cost the same — every lattice point is
// priced, so the table is the one a point-by-point sweep of winner builds
// (oracle_test.go keeps that sweep and pins the equality), at the cost of
// a few pricings per segment.
func (o *Optimizer) envelopeTable(ctx context.Context, net topology.Network, mLo, mHi, step int) (Table, error) {
	if err := ctx.Err(); err != nil {
		return Table{}, err
	}
	if err := o.checkEnumerable(net); err != nil {
		return Table{}, err
	}
	o.evals.Add(1)
	tbl := Table{Topo: net.Name(), D: net.NumDims()}
	top := mLo + (mHi-mLo)/step*step // the last lattice point
	if net.NumDims() == 0 {
		tbl.Segments = []model.HullSegment{{MinBlock: mLo, MaxBlock: top}}
		return tbl, nil
	}
	es, err := enumFor(net)
	if err != nil {
		return Table{}, err
	}
	o.evaluated.Add(int64(len(es.parts)))
	sc := envelopeScratchPool.Get().(*envelopeScratch)
	defer func() {
		sc.pricer = analyticPricer{cost: sc.pricer.cost} // hold no fabric in the pool
		envelopeScratchPool.Put(sc)
	}()
	pricer := &sc.pricer
	pricer.reset(o.params, net, es)
	lines, err := o.candidateLines(net, es, sc)
	if err != nil {
		return Table{}, err
	}
	segs := sc.segs[:0]
	for m := mLo; m <= top; {
		w, _, err := pricer.winner(m)
		if err != nil {
			return Table{}, err
		}
		end := m // the last lattice point known to be w's
		if x := lines.leadsUntil(w, float64(m)); x > float64(top) {
			end = top
		} else if x > float64(m) {
			end = m + int((x-float64(m))/float64(step))*step
			if float64(end) >= x {
				end -= step
			}
		}
		if n := len(segs); n > 0 && segs[n-1].winner == w {
			segs[n-1].hi = end
		} else {
			segs = append(segs, envelopeSegment{winner: w, lo: m, hi: end})
		}
		m = end + step
	}
	sc.segs = segs
	tbl.Segments = make([]model.HullSegment, len(segs))
	for i, s := range segs {
		tbl.Segments[i] = model.HullSegment{Part: es.parts[s.winner].Clone(), MinBlock: s.lo, MaxBlock: s.hi}
	}
	return tbl, nil
}

// costLines holds each candidate's cost as intercept[i] + slope[i]·m.
type costLines struct {
	slope, intercept []float64
	// sound is false when a machine constant is negative, not finite, or
	// so extreme that sums could overflow or go subnormal: rounding is
	// then not the only way a line and winner's arithmetic can differ, and
	// no lead is trusted — every lattice point is priced.
	sound bool
}

// candidateLines sums model.PhaseLineOn over each candidate's phases, in
// sc's buffers.
func (o *Optimizer) candidateLines(net topology.Network, es *enumSet, sc *envelopeScratch) (costLines, error) {
	p := o.params
	l := costLines{sound: true}
	for _, c := range []float64{p.EffLambda(), p.EffTau(), p.EffDelta(), p.Rho, p.GlobalSync(1)} {
		if c != 0 && !(c >= 0x1p-500 && c <= 0x1p500) {
			l.sound = false
		}
	}
	sc.fieldSlope, sc.fieldIntercept = resized(sc.fieldSlope, len(es.distinct)), resized(sc.fieldIntercept, len(es.distinct))
	sc.slope, sc.intercept = resized(sc.slope, len(es.parts)), resized(sc.intercept, len(es.parts))
	fieldSlope, fieldIntercept := sc.fieldSlope, sc.fieldIntercept
	l.slope, l.intercept = sc.slope, sc.intercept
	for k, f := range es.distinct {
		var err error
		if fieldSlope[k], fieldIntercept[k], err = p.PhaseLineOn(net, f[0], f[1]); err != nil {
			return costLines{}, err
		}
	}
	for i, phases := range es.phase {
		for _, k := range phases {
			l.slope[i] += fieldSlope[k]
			l.intercept[i] += fieldIntercept[k]
		}
	}
	return l, nil
}

// leadsUntil returns the block size up to which candidate w's line stays
// below every other candidate's by envelopeMargin, starting at m: m itself
// if some line is already within the margin there, +Inf if none ever comes
// within it.
func (l costLines) leadsUntil(w int, m float64) float64 {
	if !l.sound {
		return m
	}
	until := math.Inf(1)
	// Each float64(…) rounds a product before it is added or subtracted,
	// so that no GOARCH fuses the two into one multiply-add.
	ws, wc := float64(l.slope[w]*(1+envelopeMargin)), float64((l.intercept[w]+float64(l.slope[w]*m))*(1+envelopeMargin))
	for i := range l.slope {
		if i == w {
			continue
		}
		// i's lead over w's raised line is gap at m and changes by closing
		// per byte.
		gap := l.intercept[i] + float64(l.slope[i]*m) - wc
		if !(gap > 0) {
			return m
		}
		if closing := ws - l.slope[i]; closing > 0 && gap < (until-m)*closing {
			until = m + gap/closing
		}
	}
	return until
}
