package hive

import (
	"fmt"
	"sort"

	"repro/internal/archive"
	"repro/internal/journal"
	"repro/internal/prog"
)

// This file is the program re-homing surface for multi-hive sharding: a
// program's complete per-hive state (execution tree, fixes, proofs,
// failure aggregation, counters, known-good inputs, coordinated buffer,
// and the program's session dedup table) is exported as one
// journal.ProgramSnapshot, shipped as bytes (journal.EncodeSnapshot /
// DecodeSnapshot), and imported on another hive through the same
// DecodeChain restore path crash recovery uses. The snapshot carries the
// windows of exactly the sessions that sent frames about the program, so a
// sealed frame acknowledged by the old owner is dup-acknowledged by the
// new one — re-homing preserves exactly-once end to end — and no other
// program's sessions ride along.

// ExportProgram captures one program's full state as a self-contained
// snapshot, taken under the program's checkpoint gate so no journaled
// mutation is in flight. The snapshot is the same shape a full durable
// checkpoint writes; encode it with journal.EncodeSnapshot to ship it.
func (h *Hive) ExportProgram(programID string) (*journal.ProgramSnapshot, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.ckpt.Lock()
	defer st.ckpt.Unlock()
	snap, err := h.snapshotProgramMeta(st)
	if err != nil {
		return nil, err
	}
	snap.Tree = st.tree.Encode()
	return snap, nil
}

// ImportProgram installs an exported snapshot into this hive, re-homing
// the program here. The program must already be registered (the corpus is
// fleet-wide) and must not have ingested anything yet: an import replaces
// state wholesale, and silently merging two divergent histories is exactly
// the kind of loss the journal exists to prevent. Restoration runs through
// the same DecodeChain path crash recovery uses; on a durable hive the
// imported state is immediately checkpointed, so the new owner's next boot
// recovers it without needing the old owner's data directory.
func (h *Hive) ImportProgram(snap *journal.ProgramSnapshot) error {
	if snap == nil || snap.ProgramID == "" {
		return fmt.Errorf("hive: import: empty snapshot")
	}
	st, err := h.state(snap.ProgramID)
	if err != nil {
		return fmt.Errorf("hive: import %s: program not registered: %w", snap.ProgramID, err)
	}
	st.ckpt.Lock()
	defer st.ckpt.Unlock()
	if st.ingested.Load() > 0 {
		return fmt.Errorf("hive: import %s: program already holds %d ingested traces here", snap.ProgramID, st.ingested.Load())
	}
	if len(snap.Tree) == 0 {
		return fmt.Errorf("hive: import %s: snapshot has no tree (delta segments cannot be imported alone)", snap.ProgramID)
	}
	if err := h.restoreProgram(st, snap, nil); err != nil {
		return err
	}
	st.tree.SetDeltaTracking(true)
	if h.journal != nil {
		// restoreProgram replaced st.tree; re-arm the certificate observer
		// on the new tree so post-import certs keep being journaled.
		h.observeCertificates(st)
		if err := h.journal.Checkpoint(snap); err != nil {
			return fmt.Errorf("hive: import %s: persist: %w", snap.ProgramID, err)
		}
		st.hasBase = true
		st.deltasSince = 0
	}
	return nil
}

// DropProgram forgets a program this hive no longer owns, freeing its
// state, session dedup table included. Subsequent frames for it fail with ErrUnknownProgram — the
// routing tier answers them with a redirect before they reach the hive,
// so the error only surfaces to peers with a placement older than the
// move. Dropping an unknown program is a no-op.
func (h *Hive) DropProgram(programID string) {
	h.mu.Lock()
	delete(h.programs, programID)
	h.mu.Unlock()
}

// ExportFromStore recovers a dead hive's data directory into a scratch
// hive and exports every program persisted there — the takeover path when
// a hive process is gone but its journal survives: survivors split the
// dead hive's programs per the new placement and ImportProgram each.
// corpus must cover every program in the store (Recover refuses persisted
// state for unregistered programs) and salt must match the dead hive's.
// The returned map is keyed by program ID and sorted iteration is the
// caller's concern; the store stays attached to the scratch hive, so close
// it only after the exports are consumed.
func ExportFromStore(store *journal.Store, corpus []*prog.Program, salt string) (map[string]*journal.ProgramSnapshot, error) {
	scratch := New(salt)
	for _, p := range corpus {
		if err := scratch.RegisterProgram(p); err != nil {
			return nil, err
		}
	}
	if err := scratch.Recover(store); err != nil {
		return nil, fmt.Errorf("hive: takeover recovery: %w", err)
	}
	ids := store.Programs()
	sort.Strings(ids)
	out := make(map[string]*journal.ProgramSnapshot, len(ids))
	for _, id := range ids {
		snap, err := scratch.ExportProgram(id)
		if err != nil {
			return nil, err
		}
		out[id] = snap
	}
	return out, nil
}

// ExportFromArchive is cold-standby recovery (PR 10): rebuild a dead
// hive's programs with nothing but the archive store — its process gone,
// its data directory deleted. The archived chains are materialized into a
// journal-compatible scratch directory and recovered through the exact
// same journal.Open + Recover path a reboot from local disk takes, so
// archive recovery is disk recovery by construction; the exports then feed
// ImportProgram on the surviving hives. The scratch store stays attached
// to the scratch hive — close it only after the exports are consumed.
func ExportFromArchive(obj archive.ObjectStore, scratchDir string, corpus []*prog.Program, salt string) (map[string]*journal.ProgramSnapshot, *journal.Store, error) {
	if _, err := archive.Materialize(obj, nil, scratchDir); err != nil {
		return nil, nil, fmt.Errorf("hive: cold-standby materialize: %w", err)
	}
	store, err := journal.Open(scratchDir, journal.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("hive: cold-standby open: %w", err)
	}
	store.SetChainFetcher(archive.ChainFetcher(obj))
	out, err := ExportFromStore(store, corpus, salt)
	if err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	return out, store, nil
}
