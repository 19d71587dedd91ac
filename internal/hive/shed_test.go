package hive

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

// buildRecomb returns a program with two independent branches on two
// inputs: four distinct paths over the same four branch edges, so path
// novelty and edge novelty can be driven separately.
func buildRecomb(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("recomb", 2)
	b.Input(0, 0)
	b.Input(1, 1)
	l1 := b.NewLabel()
	b.BrImm(0, prog.CmpGE, 50, l1)
	b.Bind(l1)
	l2 := b.NewLabel()
	b.BrImm(1, prog.CmpGE, 50, l2)
	b.Bind(l2)
	b.Halt()
	return b.MustBuild()
}

// gauge is an injectable pressure source.
type gauge struct{ bits atomic.Uint64 }

func (g *gauge) set(v float64)   { g.bits.Store(math.Float64bits(v)) }
func (g *gauge) read() float64   { return math.Float64frombits(g.bits.Load()) }
func (g *gauge) source() float64 { return g.read() }

// shedHive is a registered hive with an installed policy and gauge.
func shedHive(t *testing.T, p *prog.Program, policy *ShedPolicy) (*Hive, *gauge) {
	t.Helper()
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	g := &gauge{}
	h.SetShedPolicy(policy)
	h.SetPressureSource(g.source)
	return h, g
}

func ingested(t *testing.T, h *Hive, programID string) int64 {
	t.Helper()
	st, err := h.ProgramStats(programID)
	if err != nil {
		t.Fatal(err)
	}
	return st.Ingested
}

// TestShedLadder walks the pricing ladder end to end: below the
// watermark everything is admitted; past it exact duplicates go first;
// covered-only recombinations go in the middle third; and a shed batch
// never marks its session, so resubmission under low pressure re-prices
// and ingests.
func TestShedLadder(t *testing.T) {
	p := buildRecomb(t)
	h, g := shedHive(t, p, &ShedPolicy{Watermark: 0.5})

	tt := captureTrace(t, p, "pod-0", []int64{60, 60}, trace.PrivacyHashed) // (T,T)
	ff := captureTrace(t, p, "pod-0", []int64{10, 10}, trace.PrivacyHashed) // (F,F)
	tf := captureTrace(t, p, "pod-0", []int64{60, 10}, trace.PrivacyHashed) // (T,F)
	ft := captureTrace(t, p, "pod-0", []int64{10, 60}, trace.PrivacyHashed) // (F,T)

	// Prime the tree: both (T,T) and (F,F), so all four edges are covered.
	// (Sequence numbers are 1-based: the dedup base starts at 0.)
	for seq, tr := range []*trace.Trace{tt, ff} {
		if _, err := h.SubmitTracesSession("sess", uint64(seq+1), p.ID, []*trace.Trace{tr}); err != nil {
			t.Fatal(err)
		}
	}
	base := ingested(t, h, p.ID)

	// Below the watermark: a duplicate sails through.
	g.set(0.4)
	if _, err := h.SubmitTracesSession("sess", 3, p.ID, []*trace.Trace{tt}); err != nil {
		t.Fatal(err)
	}
	if got := ingested(t, h, p.ID); got != base+1 {
		t.Fatalf("below-watermark duplicate not ingested: %d, want %d", got, base+1)
	}

	// Just past the watermark (overshoot 0.1): the duplicate is shed —
	// acked, not applied, session not marked.
	g.set(0.55)
	dup, err := h.SubmitTracesSession("sess", 4, p.ID, []*trace.Trace{tt})
	if err != nil || dup {
		t.Fatalf("shed duplicate: dup=%v err=%v", dup, err)
	}
	if got := ingested(t, h, p.ID); got != base+1 {
		t.Fatalf("shed duplicate was applied: ingested %d", got)
	}
	// ...but a covered-only recombination still passes at overshoot 0.1.
	if _, err := h.SubmitTracesSession("sess", 5, p.ID, []*trace.Trace{tf}); err != nil {
		t.Fatal(err)
	}
	if got := ingested(t, h, p.ID); got != base+2 {
		t.Fatalf("covered-only batch below its tier was shed: ingested %d", got)
	}

	// Overshoot 0.4 (>= 1/3): covered-only goes too.
	g.set(0.7)
	if dup, err := h.SubmitTracesSession("sess", 6, p.ID, []*trace.Trace{ft}); err != nil || dup {
		t.Fatalf("shed covered-only: dup=%v err=%v", dup, err)
	}
	if got := ingested(t, h, p.ID); got != base+2 {
		t.Fatalf("shed covered-only batch was applied: ingested %d", got)
	}

	// The shed frames were never session-marked: resubmitting seq 4 and 6
	// verbatim at low pressure re-prices and ingests (dup=false).
	g.set(0)
	for _, seq := range []uint64{4, 6} {
		tr := tt
		if seq == 6 {
			tr = ft
		}
		dup, err := h.SubmitTracesSession("sess", seq, p.ID, []*trace.Trace{tr})
		if err != nil || dup {
			t.Fatalf("resubmit seq %d: dup=%v err=%v", seq, dup, err)
		}
	}
	if got := ingested(t, h, p.ID); got != base+4 {
		t.Fatalf("resubmitted shed frames not ingested: %d, want %d", got, base+4)
	}

	ss := h.ShedStats()
	if ss.ShedDuplicate != 1 || ss.ShedCovered != 1 || ss.Deferred != 0 {
		t.Fatalf("shed counters = %+v", ss)
	}
	if ss.Admitted < 4 {
		t.Fatalf("admitted counter = %d, want >= 4", ss.Admitted)
	}
}

// TestShedNeverFirstSightFailure pins the invariant overload must not
// break: a failure signature the hive has never aggregated is admitted
// at ANY pressure — while duplicates of a known signature are shed like
// any other duplicate.
func TestShedNeverFirstSightFailure(t *testing.T) {
	p := buildCrashy(t)
	h, g := shedHive(t, p, &ShedPolicy{Watermark: 0.5})

	crash := captureTrace(t, p, "pod-0", []int64{105}, trace.PrivacyHashed)
	if !crash.Outcome.IsFailure() {
		t.Fatal("trigger input did not crash")
	}

	// Saturated: pressure 1.0, and the batch even includes a duplicate-
	// to-be — the first-sight signature must carry the whole batch in.
	g.set(1.0)
	if _, err := h.SubmitTracesSession("sess", 1, p.ID, []*trace.Trace{crash}); err != nil {
		t.Fatal(err)
	}
	if got := ingested(t, h, p.ID); got != 1 {
		t.Fatalf("first-sight crash shed at saturation: ingested %d", got)
	}
	ss := h.ShedStats()
	if ss.AdmittedFirstSight != 1 {
		t.Fatalf("AdmittedFirstSight = %d, want 1", ss.AdmittedFirstSight)
	}

	// The same crash again: its signature is now known, its path is a
	// structural duplicate — shed like any repeat.
	if dup, err := h.SubmitTracesSession("sess", 2, p.ID, []*trace.Trace{crash}); err != nil || dup {
		t.Fatalf("known-signature duplicate: dup=%v err=%v", dup, err)
	}
	if got := ingested(t, h, p.ID); got != 1 {
		t.Fatal("known-signature duplicate crash was applied at saturation")
	}
	if ss := h.ShedStats(); ss.ShedDuplicate != 1 {
		t.Fatalf("ShedDuplicate = %d, want 1", ss.ShedDuplicate)
	}
}

// TestShedDefersLowRarityNovelty exercises the last tier: novel paths
// carrying new edges are deferred (pod.ErrDeferred) near saturation when
// their divergence sibling is thinly visited, and admitted once the
// sibling's traffic marks the frontier as a prime steering target.
func TestShedDefersLowRarityNovelty(t *testing.T) {
	p := buildCrashy(t)
	h, g := shedHive(t, p, &ShedPolicy{Watermark: 0.5, RarityFloor: 3})

	benign := captureTrace(t, p, "pod-0", []int64{1}, trace.PrivacyHashed)  // input < 100 path
	novel := captureTrace(t, p, "pod-0", []int64{150}, trace.PrivacyHashed) // >= 100, >= 110: new edges

	if _, err := h.SubmitTracesSession("sess", 1, p.ID, []*trace.Trace{benign}); err != nil {
		t.Fatal(err)
	}

	// Sibling visited once < RarityFloor 3: deferred at overshoot 0.9.
	g.set(0.95)
	_, err := h.SubmitTracesSession("sess", 2, p.ID, []*trace.Trace{novel})
	if !errors.Is(err, pod.ErrDeferred) {
		t.Fatalf("low-rarity novelty: err = %v, want pod.ErrDeferred", err)
	}
	if got := ingested(t, h, p.ID); got != 1 {
		t.Fatalf("deferred batch was applied: ingested %d", got)
	}
	if ss := h.ShedStats(); ss.Deferred != 1 {
		t.Fatalf("Deferred = %d, want 1", ss.Deferred)
	}

	// Drive the sibling's traffic over the floor, then retry the exact
	// same frame: now a prime target, admitted even at the same pressure.
	g.set(0)
	for seq := uint64(3); seq < 6; seq++ {
		if _, err := h.SubmitTracesSession("sess", seq, p.ID, []*trace.Trace{benign}); err != nil {
			t.Fatal(err)
		}
	}
	g.set(0.95)
	dup, err := h.SubmitTracesSession("sess", 2, p.ID, []*trace.Trace{novel})
	if err != nil || dup {
		t.Fatalf("retried novelty above the floor: dup=%v err=%v", dup, err)
	}
	if got := ingested(t, h, p.ID); got != 5 {
		t.Fatalf("retried novelty not ingested: %d, want 5", got)
	}
}

// TestShedEvictedSessionAtLeastOnce checks that a session's window
// survives a flood of 4096 other sessions, so its resubmission is
// dup-acked at any shed pressure — exactly-once, where an early bounded
// table evicted the session and degraded to at-least-once. (Historical
// name kept so CI test-name regexes keep matching; the asserted contract
// is exactly-once.)
func TestShedEvictedSessionAtLeastOnce(t *testing.T) {
	p := buildRecomb(t)
	h, g := shedHive(t, p, &ShedPolicy{Watermark: 0.5})

	tr := captureTrace(t, p, "pod-0", []int64{60, 60}, trace.PrivacyHashed)
	if dup, err := h.SubmitTracesSession("victim", 1, p.ID, []*trace.Trace{tr}); err != nil || dup {
		t.Fatalf("initial submit: dup=%v err=%v", dup, err)
	}

	// Flood the table with as many sessions as the old bounded table held.
	const flood = 4096
	for i := 0; i < flood; i++ {
		if _, err := h.SubmitTracesSession(fmt.Sprintf("flood-%d", i), 1, p.ID, []*trace.Trace{tr}); err != nil {
			t.Fatal(err)
		}
	}
	before := ingested(t, h, p.ID)

	// Resubmit the acked frame verbatim while the hive sheds hard: the
	// window still holds it, so the frame is dup-acked before any pricing.
	g.set(0.9)
	dup, err := h.SubmitTracesSession("victim", 1, p.ID, []*trace.Trace{tr})
	if err != nil {
		t.Fatalf("displaced-session resubmission errored: %v", err)
	}
	if !dup {
		t.Fatal("flooded-out session lost its dedup window (at-least-once regression)")
	}
	if got := ingested(t, h, p.ID); got != before {
		t.Fatalf("dup-acked resubmission was applied: ingested %d, want %d", got, before)
	}

	// Same at low pressure: the window, not the shedder, carries dedup.
	g.set(0)
	dup, err = h.SubmitTracesSession("victim", 1, p.ID, []*trace.Trace{tr})
	if err != nil || !dup {
		t.Fatalf("low-pressure resubmission after the flood: dup=%v err=%v", dup, err)
	}
	if got := ingested(t, h, p.ID); got != before {
		t.Fatalf("low-pressure resubmission double-applied: ingested %d, want %d", got, before)
	}
}
