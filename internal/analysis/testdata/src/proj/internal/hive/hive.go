// Package hive seeds journalfirst and lockdiscipline violations against
// miniature stand-ins for the real hive's types and journaled-apply call
// graph.
package hive

import "sync"

// Hive mirrors the real registry locks.
type Hive struct {
	mu     sync.RWMutex
	sessMu sync.Mutex
	progs  map[string]*programState
}

// programState mirrors the real per-program lock set.
type programState struct {
	mu      sync.Mutex
	ckpt    sync.RWMutex
	kgMu    sync.Mutex
	coordMu sync.Mutex
	applied int
}

// sessionEntry mirrors the per-session dedup record.
type sessionEntry struct {
	mu   sync.Mutex
	seen int
}

func (h *Hive) applyBatchView(st *programState) {
	st.applied++
	h.synthesizeFix(st)
}

func (h *Hive) synthesizeFix(st *programState) {}

func (h *Hive) markSession(id string) {}

func (h *Hive) mergeSessions(a, b string) {
	h.markSession(a)
	_ = h.entryLocked(b)
}

// ingestView is the sanctioned journaled wrapper; it appends through the
// breaker-accounted wrapper before applying. Clean.
func (h *Hive) ingestView(st *programState) {
	_ = h.journalBatchAppend(st)
	h.markSession("s")
	h.applyBatchView(st)
}

// applyOp is the sanctioned recovery/replay path. Clean.
func (h *Hive) applyOp(st *programState) {
	h.markSession("s")
	h.applyBatchView(st)
}

// handleDirectView skips the journaled view wrapper. Finding expected.
func (h *Hive) handleDirectView(st *programState) {
	h.applyBatchView(st)
}

// touchSession marks a session outside the sanctioned paths. Finding
// expected.
func (h *Hive) touchSession(id string) {
	h.markSession(id)
}

// replayHook is a deliberate exception: the suppression must silence it.
func (h *Hive) replayHook(st *programState) {
	//lint:allow journalfirst test-only replay hook; never reachable in production
	h.applyBatchView(st)
}

// journalBatchAppend mirrors the PR 10 breaker-accounted append wrapper.
func (h *Hive) journalBatchAppend(st *programState) error { return nil }

// closeReadOnly mirrors the breaker close; only a landed checkpoint may
// call it.
func (st *programState) closeReadOnly() {}

// entryLocked mirrors the frozen-tier session lookup under sessMu.
func (h *Hive) entryLocked(id string) *sessionEntry { return nil }

// CheckpointProgram is the sanctioned breaker-close path. Clean.
func (h *Hive) CheckpointProgram(st *programState) {
	st.closeReadOnly()
}

// rawAppend bypasses the breaker's failure accounting. Finding expected.
func (h *Hive) rawAppend(st *programState) {
	_ = h.journalBatchAppend(st)
}

// forceWritable closes the breaker without a checkpoint. Finding expected.
func (h *Hive) forceWritable(st *programState) {
	st.closeReadOnly()
}

// peekFrozen reads the frozen tier outside the merge path. Finding
// expected.
func (h *Hive) peekFrozen(id string) *sessionEntry {
	return h.entryLocked(id)
}
