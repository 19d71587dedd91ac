package hive

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/journal"
	"repro/internal/proof"
	"repro/internal/trace"
)

// Recover restores the hive's durable state from store — newest snapshot
// plus journal-suffix replay, per program — and attaches the store, so
// every subsequent mutation is journaled ahead of being applied. Call it
// after registering the program corpus and before serving traffic. A
// recovered hive is semantically identical to the one that wrote the
// journal: same program stats, same frontier sets (exectree.Decode rebuilds
// the incremental index), same published fixes and standing proofs, and the
// same exactly-once session dedup table.
//
// Persisted state for a program that is not registered is an error: it
// means the data directory and the program corpus disagree (wrong -seed, or
// a stale directory), and silently dropping collective knowledge is exactly
// what the journal exists to prevent.
func (h *Hive) Recover(store *journal.Store) error {
	if h.journal != nil {
		return errors.New("hive: journal already attached")
	}
	for _, id := range store.Programs() {
		if _, err := h.state(id); err != nil {
			return fmt.Errorf("hive: recover: journal holds state for unregistered program %s", id)
		}
	}
	for _, id := range h.Programs() {
		st, err := h.state(id)
		if err != nil {
			return err
		}
		base, deltas, err := store.LoadChain(id)
		if err != nil {
			return err
		}
		if base != nil {
			if err := h.restoreProgram(st, base, deltas); err != nil {
				return err
			}
			st.hasBase = true
			st.deltasSince = len(deltas)
		}
		// Track tree changes from this point: journal-suffix ops replayed
		// below mark the dirty set, so the first post-recovery checkpoint
		// can be an incremental segment capturing exactly the suffix.
		st.tree.SetDeltaTracking(true)
		// Certificates minted during a proof attempt can reference nodes the
		// attempt itself created; those merges replay later, inside the
		// attempt's OpProof. A cert whose prefix is not in the tree yet is
		// deferred and re-applied once the program's whole journal has
		// replayed (certificates are order-independent facts). Certs still
		// unresolvable then belong to an attempt that crashed before its
		// OpProof landed — its merges are gone, so the frontier they
		// discharged does not exist either.
		var deferred []*journal.Op
		if _, err := store.Replay(id, func(op *journal.Op) error {
			if op.Kind == journal.OpCert && !st.tree.CertifyInfeasible(op.Prefix, op.Missing) {
				deferred = append(deferred, op)
				return nil
			}
			return h.applyOp(st, op)
		}); err != nil {
			return err
		}
		for _, op := range deferred {
			st.tree.CertifyInfeasible(op.Prefix, op.Missing)
		}
	}
	h.journal = store
	// From here on, certificates minted anywhere — the prover discharging a
	// frontier, the guidance generator refuting one — are journaled at the
	// tree.
	for _, id := range h.Programs() {
		st, err := h.state(id)
		if err != nil {
			return err
		}
		h.observeCertificates(st)
	}
	return nil
}

// observeCertificates journals every newly minted infeasibility certificate
// on the program's tree.
func (h *Hive) observeCertificates(st *programState) {
	programID := st.prog.ID
	st.tree.SetCertifyObserver(func(prefix []exectree.Edge, missing exectree.Edge) {
		op := &journal.Op{
			Kind:    journal.OpCert,
			Prefix:  append([]exectree.Edge(nil), prefix...),
			Missing: missing,
		}
		if err := h.journal.Append(programID, op); err != nil {
			h.noteDurability(err)
		}
	})
}

// restoreProgram rebuilds one program's state from a checkpoint chain: the
// base snapshot's tree with every delta segment's tree patch overlaid in
// order, and the non-tree state from the newest segment (each segment
// carries it in full).
func (h *Hive) restoreProgram(st *programState, base *journal.ProgramSnapshot, deltas []*journal.ProgramSnapshot) error {
	treeDeltas := make([][]byte, 0, len(deltas))
	for _, d := range deltas {
		treeDeltas = append(treeDeltas, d.TreeDelta)
	}
	tree, err := exectree.DecodeChain(base.Tree, treeDeltas)
	if err != nil {
		return fmt.Errorf("hive: restore %s tree: %w", st.prog.ID, err)
	}
	if tree.ProgramID() != st.prog.ID {
		return fmt.Errorf("hive: snapshot tree for %q restored into %q", tree.ProgramID(), st.prog.ID)
	}
	snap := base
	if len(deltas) > 0 {
		snap = deltas[len(deltas)-1]
	}
	fixes := make([]fix.Fix, 0, len(snap.Fixes))
	for i, raw := range snap.Fixes {
		f, err := fix.Decode(raw)
		if err != nil {
			return fmt.Errorf("hive: restore %s fix %d: %w", st.prog.ID, i, err)
		}
		fixes = append(fixes, *f)
	}
	proofs := make(map[proof.Property]*proof.Proof, len(snap.Proofs))
	for i, raw := range snap.Proofs {
		pr, err := proof.Decode(raw)
		if err != nil {
			return fmt.Errorf("hive: restore %s proof %d: %w", st.prog.ID, i, err)
		}
		proofs[pr.Property] = pr
	}
	var coordinated map[string][]*trace.Trace
	if len(snap.Coordinated) > 0 {
		coordinated = make(map[string][]*trace.Trace, len(snap.Coordinated))
		for key, raws := range snap.Coordinated {
			fam := make([]*trace.Trace, 0, len(raws))
			for _, raw := range raws {
				tr, err := trace.Decode(raw)
				if err != nil {
					return fmt.Errorf("hive: restore %s coordinated fragment: %w", st.prog.ID, err)
				}
				fam = append(fam, tr)
			}
			coordinated[key] = fam
		}
	}
	knownGood := make([][]int64, 0, len(snap.KnownGood))
	for _, g := range snap.KnownGood {
		knownGood = append(knownGood, append([]int64(nil), g...))
	}

	st.mu.Lock()
	st.tree = tree
	if err := st.fixes.Load(fixes); err != nil {
		st.mu.Unlock()
		return fmt.Errorf("hive: restore %s fixes: %w", st.prog.ID, err)
	}
	st.epoch = snap.Epoch
	st.proofs = proofs
	st.mu.Unlock()
	st.ingested.Store(snap.Ingested)
	st.reconstructed.Store(snap.Reconstructed)
	st.narrowed.Store(snap.Narrowed)
	if len(knownGood) > 0 {
		st.kgMu.Lock()
		st.knownGood = knownGood
		st.kgMu.Unlock()
	}
	st.coordMu.Lock()
	st.coordinated = coordinated
	st.coordMu.Unlock()

	for _, fs := range snap.Failures {
		if err := st.failures.restore(fs); err != nil {
			return err
		}
	}
	st.mergeSessions(snap.Sessions, snap.SessionsAhead)
	return nil
}

// applyOp replays one journaled operation through the same apply path live
// ingestion uses.
func (h *Hive) applyOp(st *programState, op *journal.Op) error {
	switch op.Kind {
	case journal.OpBatchColumnar:
		view, err := trace.DecodeBatch(op.Raw)
		if err != nil {
			return fmt.Errorf("hive: replay %s columnar batch: %w", st.prog.ID, err)
		}
		// Replay runs through the same view-based apply path live ingestion
		// uses — the journaled bytes ARE the wire bytes, so a recovered hive
		// reproduces the live one's state exactly.
		h.applyBatchView(st, view, false)
		view.Release()
		if op.Session != "" {
			st.markSession(op.Session, op.Seq)
		}
	case journal.OpSynthesis:
		if len(op.Fix) == 0 {
			st.failures.applyOutcome(op.Signature, 0, false)
			return nil
		}
		f, err := fix.Decode(op.Fix)
		if err != nil {
			return fmt.Errorf("hive: replay %s fix for %q: %w", st.prog.ID, op.Signature, err)
		}
		st.mu.Lock()
		// Synthesis ops were journaled in fix-ID order, so Add re-assigns
		// the same IDs the live hive handed out.
		st.fixes.Add(*f)
		st.epoch++
		st.proofs = make(map[proof.Property]*proof.Proof)
		st.mu.Unlock()
		st.failures.applyOutcome(op.Signature, 0, true)
	case journal.OpProof:
		pr, err := proof.Decode(op.Proof)
		if err != nil {
			return fmt.Errorf("hive: replay %s proof: %w", st.prog.ID, err)
		}
		for _, ev := range pr.Evidence {
			st.tree.Merge(ev.Path, ev.Outcome)
		}
		st.mu.Lock()
		st.proofs[pr.Property] = pr
		st.mu.Unlock()
	case journal.OpCert:
		st.tree.CertifyInfeasible(op.Prefix, op.Missing)
	default:
		return fmt.Errorf("hive: unknown journal op kind %d", op.Kind)
	}
	return nil
}

// Checkpoint writes a fresh snapshot for every program and rotates its
// journal. Each program is checkpointed independently under its checkpoint
// gate, so ingestion for other programs keeps flowing: every piece of
// durable state, the session dedup table included, belongs to exactly one
// program.
func (h *Hive) Checkpoint() error {
	if h.journal == nil {
		return errors.New("hive: checkpoint without an attached journal")
	}
	for _, id := range h.Programs() {
		if err := h.CheckpointProgram(id); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointProgram snapshots one program and rotates its journal. With the
// incremental policy (the default) most checkpoints write a delta segment —
// only the tree nodes touched since the previous checkpoint plus the small
// non-tree state — bounding the pause under the gate to O(changes) instead
// of O(tree); a program's first checkpoint, and every compactEvery-th one
// after, writes a full snapshot that compacts the chain. OpProof evidence
// merges mark the dirty set like any other merge, so a proof attempt's
// evidence paths are folded into the very next segment eagerly instead of
// being replayed from the journal forever.
func (h *Hive) CheckpointProgram(programID string) error {
	if h.journal == nil {
		return errors.New("hive: checkpoint without an attached journal")
	}
	st, err := h.state(programID)
	if err != nil {
		return err
	}
	st.ckpt.Lock()
	defer st.ckpt.Unlock()

	// Quiescent program: nothing merged since the last checkpoint and no
	// journal ops to retire — a checkpoint would write an empty segment
	// (or, on a compaction tick, re-encode an unchanged tree) for zero
	// replay-debt reduction. Skipping never loses data: the journal, if it
	// somehow had ops, stays in place, and every session mark the program
	// holds arrived with one of its own journaled batches.
	if st.hasBase && st.tree.DirtyNodes() == 0 &&
		h.journal.AppendsSinceCheckpoint(programID) == 0 {
		return nil
	}

	if st.hasBase && h.compactEvery > 0 && st.deltasSince < h.compactEvery {
		if delta := st.tree.EncodeDelta(); delta != nil {
			snap, err := h.snapshotProgramMeta(st)
			if err != nil {
				return err
			}
			snap.TreeDelta = delta
			if err := h.journal.CheckpointDelta(snap); err != nil {
				return err
			}
			// Only now that the segment is durable does the boundary move;
			// a failed write above leaves the dirty set (and the journal)
			// intact, so nothing acknowledged can fall between snapshots.
			st.tree.ResetDelta()
			st.deltasSince++
			h.closeReadOnly(st)
			return nil
		}
	}

	snap, err := h.snapshotProgramMeta(st)
	if err != nil {
		return err
	}
	snap.Tree = st.tree.Encode()
	if err := h.journal.Checkpoint(snap); err != nil {
		return err
	}
	st.tree.SetDeltaTracking(true) // fresh boundary over the new base
	st.hasBase = true
	st.deltasSince = 0
	h.closeReadOnly(st)
	return nil
}

// closeReadOnly closes a program's journal breaker after a checkpoint
// landed durably: the disk demonstrably takes writes again, and the
// checkpoint rotated away any poisoned journal generation.
func (h *Hive) closeReadOnly(st *programState) {
	st.appendFails.Store(0)
	if st.readOnly.Swap(false) && h.Logf != nil {
		h.Logf("hive: program %s: checkpoint landed; read-only breaker closed, ingest resumes", st.prog.ID)
	}
}

// snapshotProgramMeta serializes everything in one program's durable state
// except the tree — fixes, proofs, failure aggregation, counters,
// known-good inputs, the coordinated buffer, and the program's session
// dedup table. Both full snapshots and delta segments carry this in full;
// only the tree differs. The caller holds the checkpoint gate exclusively,
// so no journaled mutation is in flight.
func (h *Hive) snapshotProgramMeta(st *programState) (*journal.ProgramSnapshot, error) {
	snap := &journal.ProgramSnapshot{
		ProgramID:     st.prog.ID,
		Ingested:      st.ingested.Load(),
		Reconstructed: st.reconstructed.Load(),
		Narrowed:      st.narrowed.Load(),
	}
	st.kgMu.Lock()
	for _, g := range st.knownGood {
		snap.KnownGood = append(snap.KnownGood, append([]int64(nil), g...))
	}
	st.kgMu.Unlock()
	st.coordMu.Lock()
	if len(st.coordinated) > 0 {
		snap.Coordinated = make(map[string][][]byte, len(st.coordinated))
		for key, fam := range st.coordinated {
			raws := make([][]byte, 0, len(fam))
			for _, tr := range fam {
				raws = append(raws, trace.Encode(tr))
			}
			snap.Coordinated[key] = raws
		}
	}
	st.coordMu.Unlock()
	st.mu.Lock()
	snap.Epoch = st.epoch
	fixes := st.fixes.All()
	props := make([]proof.Property, 0, len(st.proofs))
	for p := range st.proofs {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	proofs := make([]*proof.Proof, 0, len(props))
	for _, p := range props {
		proofs = append(proofs, st.proofs[p])
	}
	st.mu.Unlock()

	for i := range fixes {
		raw, err := fix.Encode(&fixes[i])
		if err != nil {
			return nil, fmt.Errorf("hive: snapshot %s fix %d: %w", st.prog.ID, i, err)
		}
		snap.Fixes = append(snap.Fixes, raw)
	}
	for _, pr := range proofs {
		raw, err := proof.Encode(pr)
		if err != nil {
			return nil, fmt.Errorf("hive: snapshot %s proof: %w", st.prog.ID, err)
		}
		snap.Proofs = append(snap.Proofs, raw)
	}
	snap.Failures = st.failures.export()
	snap.Sessions, snap.SessionsAhead = st.sessionSnapshot()
	return snap, nil
}
