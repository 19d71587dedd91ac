package hive

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/pod"
	"repro/internal/trace"
)

// ShedPolicy configures rarity-priced load shedding (PR 9). Past the
// pressure Watermark the hive prices every sessioned batch BEFORE ingest
// — against the exec tree it already holds — and drops the cheapest work
// first: exact structural duplicates go at the watermark, covered-only
// recombinations at a third of the way to saturation, and low-rarity
// novelty is deferred (pod.ErrDeferred, retried by the client) in the
// last third. First-sight failures are never shed at any pressure: a
// crash signature the hive has not aggregated yet is the one observation
// overload must not cost.
type ShedPolicy struct {
	// Watermark is the pressure in [0,1) at which pricing starts
	// (values <= 0 select DefaultShedWatermark). Below it every batch is
	// admitted untouched.
	Watermark float64
	// RarityFloor is the Frontier.SiblingVisits threshold separating
	// prime steering targets from thin exploration: a novel path whose
	// divergence sibling has fewer visits than this is "low rarity" and
	// deferrable near saturation. 0 disables the defer tier.
	RarityFloor int64
}

// DefaultShedWatermark is the pressure at which shedding engages when a
// policy does not pin its own.
const DefaultShedWatermark = 0.75

// ShedStats is a point-in-time snapshot of the shed decision counters.
// Counters count pricing decisions, not traces: a deferred batch that is
// resubmitted and admitted contributes to both Deferred and Admitted.
type ShedStats struct {
	// Admitted counts batches priced while shedding was engaged (or
	// pressure-checked below the watermark) and passed through to ingest.
	Admitted int64
	// AdmittedFirstSight counts the subset of Admitted carrying a failure
	// signature the hive had never aggregated — always admitted.
	AdmittedFirstSight int64
	// ShedDuplicate counts batches dropped as exact structural
	// duplicates: every trace walks known structure to a known terminal
	// and adds no coverage. They are acked (accepted) without ingest.
	ShedDuplicate int64
	// ShedCovered counts batches dropped because their only novelty was
	// recombination of already-covered edges.
	ShedCovered int64
	// Deferred counts batches declined with pod.ErrDeferred: novel but
	// below the rarity floor, worth retrying once pressure drops.
	Deferred int64
	// PeakPressure is the highest gauge reading any pricing decision
	// observed — the tuning signal for the watermark.
	PeakPressure float64
}

// shedCounters is the concurrent form of ShedStats.
type shedCounters struct {
	admitted   atomic.Int64
	firstSight atomic.Int64
	dup        atomic.Int64
	covered    atomic.Int64
	deferred   atomic.Int64
	peak       atomic.Uint64 // math.Float64bits, monotone max
}

// notePressure folds one gauge reading into the peak (lock-free max).
func (c *shedCounters) notePressure(p float64) {
	bits := math.Float64bits(p)
	for {
		old := c.peak.Load()
		if p <= math.Float64frombits(old) || c.peak.CompareAndSwap(old, bits) {
			return
		}
	}
}

// SetShedPolicy installs (or, with nil, removes) the load-shedding
// policy. Safe to call concurrently with ingest.
func (h *Hive) SetShedPolicy(p *ShedPolicy) {
	if p == nil {
		h.shedPolicy.Store(nil)
		return
	}
	cp := *p
	if cp.Watermark <= 0 {
		cp.Watermark = DefaultShedWatermark
	}
	if cp.Watermark >= 1 {
		cp.Watermark = 1 - 1e-9
	}
	h.shedPolicy.Store(&cp)
}

// SetPressureSource installs the gauge the shedder reads, normalized to
// [0,1] of queue budget. The wire server installs its queued-bytes gauge
// through this (pod.PressureSink); tests inject synthetic pressure. The
// hive itself never consults a clock — pressure is a pure input.
func (h *Hive) SetPressureSource(f func() float64) {
	if f == nil {
		h.pressure.Store(nil)
		return
	}
	h.pressure.Store(&f)
}

var _ pod.PressureSink = (*Hive)(nil)

// ShedStats snapshots the shed decision counters.
func (h *Hive) ShedStats() ShedStats {
	return ShedStats{
		Admitted:           h.shed.admitted.Load(),
		AdmittedFirstSight: h.shed.firstSight.Load(),
		ShedDuplicate:      h.shed.dup.Load(),
		ShedCovered:        h.shed.covered.Load(),
		Deferred:           h.shed.deferred.Load(),
		PeakPressure:       math.Float64frombits(h.shed.peak.Load()),
	}
}

func (h *Hive) loadPressure() float64 {
	if f := h.pressure.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// batchPrice is the aggregate pricing of one batch against a program's
// exec tree.
type batchPrice struct {
	newEdges      int
	novel         bool
	lowRarityOnly bool
}

// shedView prices a batch and decides its fate. Returns
// (drop=true, nil) for a batch to ack-without-ingest — the caller must
// NOT journal, apply, or mark the session (a resubmission simply
// re-prices) — or (false, err wrapping pod.ErrDeferred) to decline, or
// (false, nil) to admit.
func (h *Hive) shedView(st *programState, v *trace.BatchView) (bool, error) {
	p := h.shedPolicy.Load()
	if p == nil {
		return false, nil
	}
	pressure := h.loadPressure()
	h.shed.notePressure(pressure)
	if pressure < p.Watermark {
		h.shed.admitted.Add(1)
		return false, nil
	}
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer ingestScratchPool.Put(sc)
	n := v.Len()
	for i := 0; i < n; i++ {
		if !v.Outcome(i).IsFailure() {
			continue
		}
		sc.sig = v.FailureSignature(sc.sig[:0], i)
		if st.failures.get(string(sc.sig)) == nil {
			h.shed.firstSight.Add(1)
			h.shed.admitted.Add(1)
			return false, nil
		}
	}
	var bp batchPrice
	bp.lowRarityOnly = true
	for i := 0; i < n; i++ {
		sc.path = v.AppendBranches(sc.path[:0], i)
		pr := st.tree.PricePath(sc.path, v.Outcome(i))
		bp.newEdges += pr.NewEdges
		if pr.NovelPath {
			bp.novel = true
			if p.RarityFloor <= 0 || pr.SiblingVisits >= p.RarityFloor {
				bp.lowRarityOnly = false
			}
		}
	}
	return h.shedDecide(p, pressure, bp)
}

// shedDecide applies the pricing ladder at a given overshoot — how far
// past the watermark the pressure sits, normalized to [0,1] of the
// remaining headroom. Cheapest work goes first; novelty above the rarity
// floor is never declined no matter the pressure (admission control
// upstream is what saturates truly unbounded load).
func (h *Hive) shedDecide(p *ShedPolicy, pressure float64, bp batchPrice) (bool, error) {
	overshoot := (pressure - p.Watermark) / (1 - p.Watermark)
	switch {
	case bp.newEdges == 0 && !bp.novel:
		// Structural duplicate: merging would move only visit counters.
		h.shed.dup.Add(1)
		return true, nil
	case bp.newEdges == 0 && overshoot >= 1.0/3:
		// Covered-only: novel recombination of edges the tree already
		// covers, dropped in the middle third.
		h.shed.covered.Add(1)
		return true, nil
	case bp.lowRarityOnly && overshoot >= 2.0/3:
		// Thin novelty below the rarity floor: decline rather than drop —
		// the client retries once pressure subsides.
		h.shed.deferred.Add(1)
		return false, fmt.Errorf("hive: low-rarity batch deferred at pressure %.2f: %w", pressure, pod.ErrDeferred)
	}
	h.shed.admitted.Add(1)
	return false, nil
}
