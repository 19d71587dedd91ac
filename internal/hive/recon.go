package hive

import (
	"encoding/binary"
	"sync"

	"repro/internal/exectree"
	"repro/internal/trace"
)

// The memo is bounded by bytes, not entries: a trace's replay key carries
// its whole branch and syscall data and the value its whole reconstructed
// path, and a frame may hold traces far larger than the fleet's usual few
// dozen bytes.
const (
	// reconGenBytes is what a generation may be charged before it is
	// retired. The memo holds at most two generations, so at most
	// 2*reconGenBytes over every program.
	reconGenBytes = 192 << 10
	// reconEntryOverhead is charged per entry on top of its bytes: its map
	// slot (two string headers and a hash byte) and allocation rounding.
	reconEntryOverhead = 48
	// reconMaxEntry is the longest entry (key and value) the memo keeps; a
	// longer trace is replayed every time, as without the memo.
	reconMaxEntry = 4 << 10
)

// reconCache memoizes external-only path reconstruction across the whole
// hive. Reconstruction re-executes the program, and the VM is
// deterministic for single-threaded programs (no scheduler, scripted
// syscalls, placeholder inputs), so the full path is a pure function of the
// program and the trace's replay key (trace.BatchView.AppendReplayKey). A
// fleet keeps repeating the same paths, so most external-only traces hit.
//
// Entries are keyed by the program-instance ID (programState.instance) ahead
// of the replay key, never by pointer: a dropped program's entries pin none
// of its state and age out, and a program registered again under the same
// name gets a new ID, so it can never be served a path of the old one.
//
// Eviction is two-generational: when the current map has been charged
// reconGenBytes, it becomes the old one and the previous old map is dropped; a hit in the old map moves
// the entry back into the current one. What stays is what the live fleet
// keeps sending. The memo is derived state: it is neither journaled nor
// snapshotted, and a recovered hive starts cold.
type reconCache struct {
	// mu is a leaf: taken under a program's checkpoint gate, held only for
	// map operations, and nothing is acquired while it is held.
	mu sync.Mutex
	// cur and old map a memo key to its whole entry, the key followed by
	// the value, in one string: the map key is a prefix of the entry, so
	// an entry costs one allocation and moves between generations without
	// another.
	cur, old map[string]string
	// curBytes is what cur has been charged (len plus reconEntryOverhead per
	// entry).
	curBytes int
	// hits and misses count lookups (guarded by mu).
	hits, misses int64
}

// A memo value is a status byte followed, on success, by the full path in
// trace.AppendBranchEvents's encoding, the branch slab's. A failed
// replay is remembered too: such traces merge at recorded granularity.
const (
	reconFailed byte = iota
	reconOK
)

// get returns the value memoized under key and whether there was one.
func (c *reconCache) get(key []byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entry, ok := c.cur[string(key)]
	if !ok {
		if entry, ok = c.old[string(key)]; !ok {
			c.misses++
			return "", false
		}
		delete(c.old, string(key))
		c.putLocked(entry, len(key))
	}
	c.hits++
	return entry[len(key):], true
}

// put memoizes one entry: its first klen bytes are the key, the rest the
// value.
func (c *reconCache) put(entry string, klen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(entry, klen)
}

// putLocked inserts into the current generation, retiring it first when
// the entry would take it past reconGenBytes. Callers hold mu.
func (c *reconCache) putLocked(entry string, klen int) {
	cost := len(entry) + reconEntryOverhead
	if c.curBytes+cost > reconGenBytes {
		c.old, c.cur, c.curBytes = c.cur, nil, 0
	}
	if c.cur == nil {
		c.cur = make(map[string]string)
	}
	c.cur[entry[:klen]] = entry
	c.curBytes += cost
}

// reconstructView expands external-only trace i of v to its full path,
// through the hive-wide memo. ok is false when the replay fails (the trace
// then merges at recorded granularity). On a hit the path is decoded into
// sc.full; on a miss the program is replayed and the outcome memoized,
// unless the entry would be longer than reconMaxEntry.
func (h *Hive) reconstructView(st *programState, v *trace.BatchView, i int, sc *ingestScratch) ([]trace.BranchEvent, bool) {
	sc.key = binary.AppendUvarint(sc.key[:0], st.instance)
	sc.key = v.AppendReplayKey(sc.key, i)
	klen := len(sc.key)
	if klen <= reconMaxEntry {
		if val, ok := h.recon.get(sc.key); ok {
			if val[0] != reconOK {
				return nil, false
			}
			sc.full = trace.DecodeBranchEvents(sc.full[:0], val[1:])
			return sc.full, true
		}
	}
	full, err := exectree.Reconstruct(st.prog, v.Materialize(i))
	if klen <= reconMaxEntry {
		// Append the value behind the key in the scratch buffer; the entry
		// is stored as one string.
		if err != nil {
			sc.key = append(sc.key, reconFailed)
		} else {
			sc.key = trace.AppendBranchEvents(append(sc.key, reconOK), full)
		}
		if len(sc.key) <= reconMaxEntry {
			h.recon.put(string(sc.key), klen)
		}
	}
	if cap(sc.key) > reconMaxEntry {
		sc.key = nil // an oversized trace must not stay pinned in the pool
	}
	return full, err == nil
}
