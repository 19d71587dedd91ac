package hive

import (
	"errors"
	"sync"
)

// leakOnReturn can return with sessMu still held. Finding expected.
func (h *Hive) leakOnReturn(cond bool) error {
	h.sessMu.Lock()
	if cond {
		return errors.New("bail")
	}
	h.sessMu.Unlock()
	return nil
}

// invertedOrder acquires ckpt while holding mu, inverting the documented
// ckpt-before-mu order. Finding expected.
func invertedOrder(st *programState) {
	st.mu.Lock()
	st.ckpt.RLock()
	st.ckpt.RUnlock()
	st.mu.Unlock()
}

// registryThenProgram acquires a program lock while holding the leaf
// registry lock. Finding expected.
func (h *Hive) registryThenProgram(st *programState) {
	h.mu.RLock()
	st.mu.Lock()
	st.mu.Unlock()
	h.mu.RUnlock()
}

// doubleAcquire self-deadlocks. Finding expected.
func doubleAcquire(st *programState) {
	st.mu.Lock()
	st.mu.Lock()
	st.mu.Unlock()
	st.mu.Unlock()
}

// correctOrder follows ckpt before mu before the stripe locks. Clean.
func correctOrder(st *programState) {
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.kgMu.Lock()
	st.kgMu.Unlock()
}

// deferredUnlock returns early safely under a deferred unlock. Clean.
func deferredUnlock(st *programState, cond bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cond {
		return errors.New("bail")
	}
	st.applied++
	return nil
}

// handoffAllowed transfers lock ownership deliberately: the suppression
// must silence it.
func (e *sessionEntry) handoffAllowed(done chan<- *sessionEntry) {
	//lint:allow lockdiscipline ownership transfers to the receiver, which unlocks
	e.mu.Lock()
	done <- e
	return
}

// reconCache mirrors the hive-wide reconstruction memo.
type reconCache struct {
	mu      sync.Mutex
	entries map[string][]byte
}

// memoThenProgram acquires a program lock while holding the leaf memo
// lock. Finding expected.
func memoThenProgram(c *reconCache, st *programState) {
	c.mu.Lock()
	st.mu.Lock()
	st.mu.Unlock()
	c.mu.Unlock()
}

// memoUnderGate takes the memo lock inside the checkpoint gate, the way
// ingest does. Clean.
func memoUnderGate(c *reconCache, st *programState, key string) []byte {
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}
