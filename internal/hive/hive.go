// Package hive implements the processing center of Figure 1: it ingests
// execution by-products from the pod fleet, merges them into per-program
// collective execution trees (§3.2), detects misbehaviours, synthesizes and
// versions fixes (§3.3), serves execution guidance toward coverage gaps, and
// attempts cumulative proofs. Failures that resist automated fixing land in
// the repair lab for human review, exactly as the paper provisions.
//
// Concurrency: the hive is sharded per program. A top-level RWMutex guards
// only the program registry; every program carries its own lock, so pods
// reporting about different programs never contend. Trace batches are
// grouped by program and each group's bookkeeping runs under a single lock
// acquisition; expensive work (path reconstruction, tree merging, fix
// synthesis) happens outside the lock.
//
// Durability: a hive recovered from (and attached to) a journal.Store
// writes every mutation — trace batches, fix synthesis outcomes, proof
// attempts, infeasibility certificates — ahead of applying it, under a
// per-program checkpoint gate, so snapshot + journal replay reconstructs
// the hive exactly (see Recover, Checkpoint, and package journal for the
// durability model and the privacy invariant: the journal stores only
// post-privacy traces, exactly as pods shipped them).
package hive

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/deadlock"
	"repro/internal/exectree"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proof"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// ErrUnknownProgram is returned for traces about unregistered programs.
var ErrUnknownProgram = errors.New("hive: unknown program")

// FailureRecord is a point-in-time snapshot of one failure signature's
// fleet-wide aggregation (the live bookkeeping is striped per signature, see
// failureTable).
type FailureRecord struct {
	// Signature is the bucketing key (outcome @ fault site).
	Signature string
	// Outcome is the failure class.
	Outcome prog.Outcome
	// Count is the number of occurrences seen.
	Count int64
	// Pods is the number of distinct reporting pods.
	Pods int
	// Sample is one representative trace.
	Sample *trace.Trace
	// Fixed reports whether a fix targeting this signature was minted.
	Fixed bool
	// InRepairLab reports that automated synthesis gave up and the failure
	// awaits a human.
	InRepairLab bool
}

// programState is the hive's per-program knowledge. Each program is its own
// lock shard: mu guards the fix/proof/epoch state below, while prog, sym,
// and gen are immutable after registration (gen and tree synchronize
// internally). State that raw-privacy-heavy fleets hammer — known-good
// inputs, the coordinated-fragment buffer, the session dedup table, and the
// ingest counters — is striped out from under the shard lock onto its own
// synchronization (kgMu, coordMu, sessMu, atomics), so a hot program's
// benign traffic never serializes behind fix bookkeeping.
type programState struct {
	mu sync.Mutex

	// ckpt is the checkpoint gate: every journaled mutation (ingest,
	// synthesis, proof attempt, certificate) holds the read side across
	// journal-append *and* apply, so a checkpoint (write side) always cuts
	// between whole operations — an op is either fully reflected in the
	// snapshot or fully contained in the journal suffix after it, never
	// half in each.
	ckpt sync.RWMutex

	prog  *prog.Program
	tree  *exectree.Tree
	fixes fix.Set
	epoch int

	// hasBase and deltasSince drive the incremental-checkpoint policy
	// (full base snapshot first, then delta segments, recompacted every
	// compactEvery deltas). Both are guarded by the ckpt write gate.
	hasBase     bool
	deltasSince int

	// readOnly is the journal breaker: latched after
	// readOnlyAppendThreshold consecutive batch-append failures (disk
	// full, dead device), it refuses further ingest with pod.ErrReadOnly
	// while guidance reads keep working, and clears when a checkpoint
	// lands durably (the disk is writable again). appendFails counts the
	// consecutive failures.
	readOnly    atomic.Bool
	appendFails atomic.Int32

	// failures stripes per-signature bookkeeping so a single hot program's
	// failure traffic does not serialize on mu (it synchronizes internally).
	failures failureTable

	// knownGood holds raw inputs observed to succeed (only available from
	// PrivacyRaw pods); used to pick safe replacements and validate guards.
	// Guarded by kgMu, not mu: harvesting happens on every raw-privacy OK
	// trace, far hotter than the fix-state mutations mu protects.
	kgMu      sync.Mutex
	knownGood [][]int64

	// sym and gen exist for single-threaded programs.
	sym *symbolic.Engine
	gen *guidance.Generator

	proofs map[proof.Property]*proof.Proof

	// ingested counts merged traces; reconstructed counts external-only
	// traces expanded to full paths; narrowed counts completed coordinated
	// families merged as full paths. Atomics: bumped on every batch without
	// touching any lock.
	ingested      atomic.Int64
	reconstructed atomic.Int64
	narrowed      atomic.Int64

	// coordinated buffers coordinated-sampling fragments by execution
	// identity until every phase has arrived (paper §3.1: "subsequent
	// aggregation of traces can narrow down this family"). Guarded by
	// coordMu.
	coordMu     sync.Mutex
	coordinated map[string][]*trace.Trace

	// sessions is the program's exactly-once dedup table for wire
	// resubmission: session ID -> exact applied-seq window for the frames
	// that session sent about this program. It is journaled and
	// snapshotted with the program, moves with ExportProgram, and is freed
	// by DropProgram. Guarded by sessMu.
	sessMu   sync.Mutex
	sessions map[string]*sessionEntry
}

// maxCoordinatedFamilies bounds the fragment buffer per program.
const maxCoordinatedFamilies = 4096

// maxSessionAhead bounds one session's out-of-order applied set. If a
// permanently abandoned gap lets the set grow past the bound, the base
// slides up to the oldest retained mark — seqs under the slide degrade to
// at-most-once on resubmission, a bounded-memory tradeoff.
const maxSessionAhead = 4096

// sessionEntry is one client session's dedup state for one program: an
// exact window of applied frame sequence numbers — every seq at or below
// base is applied, plus the out-of-order applied marks above it. Tracking
// the exact set (rather than a high-water mark) makes deduplication
// independent of arrival order: frames may be delivered, rejected, parked
// across drains, and resubmitted in any interleaving, and a seq is
// re-applied iff it was never applied.
type sessionEntry struct {
	// mu serializes the dedup-check + journaled-apply of one session's
	// frames for the program. Without it, a frame resent on a new
	// connection while the old connection's worker is still draining its
	// queue could race the original past the applied check and
	// double-ingest. The serialization is sound because a session maps to
	// ONE entry object for the program's lifetime, so every submitter for
	// a session contends on the same mutex.
	mu sync.Mutex

	// base and ahead are guarded by the program's sessMu.
	base  uint64
	ahead map[uint64]struct{}
}

// Hive is the aggregation and analysis center. All methods are safe for
// concurrent use.
type Hive struct {
	mu       sync.RWMutex // guards the programs map only
	programs map[string]*programState
	salt     string

	// journal, when attached via Recover, receives every mutation ahead of
	// application. Nil for a purely in-memory hive.
	journal *journal.Store
	// compactEvery is the incremental-checkpoint compaction interval: after
	// this many delta checkpoints a program's next checkpoint is full,
	// collapsing the chain. <= 0 forces every checkpoint full.
	compactEvery int
	// durabilityErr latches the first non-batch journal failure (batch
	// append failures reject the batch instead). A pointer so the CAS
	// never sees inconsistently typed values.
	durabilityErr atomic.Pointer[error]

	// shedPolicy, pressure, and shed make up the rarity-priced load shedder
	// (shed.go): when the injected pressure gauge passes the policy's
	// watermark, sessioned batches are priced against the exec tree before
	// ingest and the cheapest work is dropped or deferred. All three are
	// zero-value safe — a hive with no policy installed prices nothing.
	shedPolicy atomic.Pointer[ShedPolicy]
	pressure   atomic.Pointer[func() float64]
	shed       shedCounters

	// Logf receives operational warnings (read-only breaker flips); nil is
	// silent. Set before serving traffic.
	Logf func(format string, args ...any)
}

// defaultCompactEvery is how many delta checkpoints a program accumulates
// before the next checkpoint compacts the chain with a full snapshot.
const defaultCompactEvery = 8

// New creates an empty hive. salt is the fleet-wide input-digest salt
// (needed to correlate hashed inputs).
func New(salt string) *Hive {
	return &Hive{
		programs:     make(map[string]*programState),
		salt:         salt,
		compactEvery: defaultCompactEvery,
	}
}

// SetCompactEvery tunes the incremental-checkpoint policy: a program's
// checkpoint writes a delta segment (O(changes since last checkpoint))
// until n deltas have accumulated, then a full snapshot compacts the chain.
// n <= 0 makes every checkpoint full — the pre-incremental behavior.
func (h *Hive) SetCompactEvery(n int) {
	h.compactEvery = n
}

// RegisterProgram tells the hive about a program so it can reconstruct,
// analyze, and fix it. Registration is idempotent.
func (h *Hive) RegisterProgram(p *prog.Program) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.programs[p.ID]; ok {
		return nil
	}
	st := &programState{
		prog:     p,
		tree:     exectree.New(p.ID),
		proofs:   make(map[proof.Property]*proof.Proof),
		sessions: make(map[string]*sessionEntry),
	}
	if p.NumThreads() == 1 {
		sym, err := symbolic.New(p, symbolic.Config{})
		if err != nil {
			return fmt.Errorf("hive: register %s: %w", p.ID, err)
		}
		st.sym = sym
	}
	gen, err := guidance.NewGenerator(p, 0)
	if err != nil {
		return fmt.Errorf("hive: register %s: %w", p.ID, err)
	}
	st.gen = gen
	h.programs[p.ID] = st
	return nil
}

// state resolves a program shard by ID.
func (h *Hive) state(programID string) (*programState, error) {
	h.mu.RLock()
	st, ok := h.programs[programID]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProgram, programID)
	}
	return st, nil
}

// Program returns the registered program by ID.
func (h *Hive) Program(programID string) (*prog.Program, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	return st.prog, nil
}

// SubmitTraces implements the pod-facing ingestion API for in-process
// pods. The batch is grouped by program and each group is encoded
// column-wise, exactly as a pod seals a wire frame, and applied through the
// one ingest path (SubmitColumnarSession): the group's traces are merged
// into the program's execution tree (reconstructing full paths from
// external-only traces when possible), failure records are updated, new
// failure signatures trigger single-flight fix synthesis, and a durable
// hive journals the encoded bytes.
//
// The call is all-or-nothing with respect to validation (unknown program):
// every ProgramID is resolved before any trace is ingested, so a batch
// rejected for that reason can be re-submitted without double-counting. On
// a durable hive there is one additional failure mode: a journal-append
// failure (e.g. disk full) rejects the failing group un-applied and aborts
// the call, leaving groups already ingested by the same call in place —
// each group is atomic, the multi-program call is not. Requeue-on-failure
// clients needing exactly-once should use the sequenced per-program path
// (SubmitTracesSession, or sealed wire frames) instead.
func (h *Hive) SubmitTraces(traces []*trace.Trace) error {
	if len(traces) == 0 {
		return nil
	}
	// Group by program, preserving arrival order within each program and
	// first-appearance order across programs.
	order := make([]string, 0, 1)
	groups := make(map[string][]*trace.Trace, 1)
	for _, tr := range traces {
		if _, ok := groups[tr.ProgramID]; !ok {
			order = append(order, tr.ProgramID)
		}
		groups[tr.ProgramID] = append(groups[tr.ProgramID], tr)
	}
	for _, id := range order {
		if _, err := h.state(id); err != nil {
			return err
		}
	}
	for _, id := range order {
		if _, err := h.submitEncoded("", 0, id, groups[id]); err != nil {
			return err
		}
	}
	return nil
}

// SubmitTracesFor implements pod.ProgramSubmitter: every trace in the
// batch must describe programID. Like SubmitTraces, the call is
// all-or-nothing with respect to its errors: an unknown program or a
// mismatched trace rejects the whole batch before anything is ingested, so
// a rejected batch can be re-submitted without double-counting.
func (h *Hive) SubmitTracesFor(programID string, traces []*trace.Trace) error {
	_, err := h.submitEncoded("", 0, programID, traces)
	return err
}

// SubmitTracesSession implements pod.SessionSubmitter: per-program
// submission deduplicated by (session, seq) so a client resubmitting a
// partially-acknowledged stream ingests each batch exactly once. It is
// SubmitColumnarSession over the batch's columnar encoding; the dedup
// semantics and tag space are that method's.
func (h *Hive) SubmitTracesSession(session string, seq uint64, programID string, traces []*trace.Trace) (bool, error) {
	return h.submitEncoded(session, seq, programID, traces)
}

// submitEncoded encodes one program's traces column-wise and applies them
// through SubmitColumnarSession — the in-process shims' bridge onto the
// single view-based ingest path.
func (h *Hive) submitEncoded(session string, seq uint64, programID string, traces []*trace.Trace) (bool, error) {
	enc, err := trace.EncodeBatch(programID, traces)
	if err != nil {
		return false, fmt.Errorf("hive: %w", err)
	}
	view, err := trace.DecodeBatch(enc)
	if err != nil {
		return false, fmt.Errorf("hive: %w", err)
	}
	defer view.Release()
	return h.SubmitColumnarSession(session, seq, view)
}

// SubmitColumnarSession implements pod.ColumnarSubmitter and is the hive's
// one ingest path: zero-copy batch ingestion. The view's fields are
// consumed straight out of the wire frame's bytes — traces are
// materialized only where the hive must retain one (failure samples,
// coordinated fragments, external-only reconstruction inputs) — and on a
// durable hive the journal records *those same bytes*
// (journal.OpBatchColumnar), so a batch is serialized exactly once in its
// lifetime: on the pod.
//
// With a session, submission is deduplicated by (session, seq) within the
// batch's program — each program keeps its own table, so the same tag about
// another program is a different frame. The dedup window is the exact set
// of applied sequence numbers (a contiguous base plus out-of-order marks),
// so arrival order does not matter — a frame is
// re-applied iff it was never applied, possibly by journal replay after a
// crash, since the op carrying (session, seq) is journaled ahead of the
// apply — and is otherwise acknowledged as a duplicate (dup=true) without
// re-ingesting.
func (h *Hive) SubmitColumnarSession(session string, seq uint64, batch *trace.BatchView) (bool, error) {
	if batch.Len() == 0 {
		return false, nil
	}
	st, err := h.state(batch.ProgramID())
	if err != nil {
		return false, err
	}
	if session == "" {
		if drop, err := h.shedView(st, batch); drop || err != nil {
			return false, err
		}
		return false, h.ingestView(st, batch, "", 0)
	}
	// One session's frames serialize across connections: the dedup check
	// and the journaled apply must be atomic per session, or a duplicate in
	// flight on two connections would pass the check twice.
	e := st.sessionFor(session)
	e.mu.Lock()
	defer e.mu.Unlock()
	if st.sessionApplied(e, seq) {
		return true, nil
	}
	// Shed decisions land after the dedup check and before the journal: a
	// dropped batch is acked without marking the session, so a
	// resubmission re-prices it fresh — at-least-once for shed work,
	// exactly-once for everything admitted.
	if drop, err := h.shedView(st, batch); drop || err != nil {
		return false, err
	}
	return false, h.ingestView(st, batch, session, seq)
}

// ingestView journals (when durable) and applies one batch, all under the
// checkpoint gate. The batch op is appended *before* it is applied — the
// write-ahead discipline — so an acknowledged batch is always recoverable;
// if the journal cannot take the op the batch is rejected un-applied and
// the client retries. The op carries the batch's raw bytes verbatim (no
// re-encode) plus session/seq, so recovery replays the same bytes through
// the same apply path and also rebuilds the exactly-once dedup table.
func (h *Hive) ingestView(st *programState, v *trace.BatchView, session string, seq uint64) error {
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	if h.journal != nil {
		// The op borrows the frame bytes only for the synchronous Append
		// below: the committer copies them into its write buffer before
		// returning, so Raw never outlives the pooled frame.
		//lint:allow viewescape Raw is consumed (copied to the WAL buffer) before Append returns; the op does not outlive the frame
		op := &journal.Op{Kind: journal.OpBatchColumnar, Session: session, Seq: seq, Raw: v.Bytes()}
		if err := h.journalBatchAppend(st, op); err != nil {
			return err
		}
	}
	h.applyBatchView(st, v, true)
	if session != "" {
		st.markSession(session, seq)
	}
	return nil
}

// pendingSynthesis is a single-flight election won during batch bookkeeping:
// the trigger trace that will synthesize the signature's fix after the lock
// is released.
type pendingSynthesis struct {
	rec *failureRecord
	tr  *trace.Trace
}

// ingestScratch is the pooled per-batch working set of the view-based
// apply path: one branch-path buffer, one input buffer, and one signature
// buffer serve a whole batch, so steady-state ingestion of benign traces
// allocates nothing per trace.
type ingestScratch struct {
	path  []trace.BranchEvent
	input []int64
	sig   []byte
}

var ingestScratchPool = sync.Pool{New: func() any { return &ingestScratch{} }}

// applyBatchView folds one batch into the hive, reading fields directly
// out of the view. It is semantically the per-trace apply over
// view.MaterializeAll() — the equivalence TestColumnarIngestMatchesV2 pins
// against a reference kept in the tests — but materializes a Trace only
// where one is retained or re-executed: failure samples (once per
// signature ever), coordinated fragments, and external-only
// reconstruction. Benign full-capture traffic — the fleet's overwhelming
// majority — is merged straight from the frame bytes through a reused path
// buffer. live distinguishes fresh ingestion from journal replay: replay
// never re-elects fix synthesis — synthesis outcomes are replayed from
// their own journal ops.
//
// Evidence visibility is batch-granular: known-good inputs harvested
// anywhere in the batch are visible when fixes for the batch's failures are
// validated (synthesis runs after the bookkeeping pass). A guard candidate
// therefore competes against strictly more collective knowledge than under
// per-trace ingestion — failing validation routes the signature to the
// repair lab rather than shipping a guard that contradicts an
// observed-good input.
func (h *Hive) applyBatchView(st *programState, v *trace.BatchView, live bool) {
	singleThreaded := st.prog.NumThreads() == 1
	n := v.Len()
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer ingestScratchPool.Put(sc)

	// Pass 1 — striped bookkeeping, no shard lock at all: coordinated
	// fragment buffering, known-good harvesting, and failure aggregation
	// with its single-flight synthesis election each ride their own
	// synchronization (coordMu, kgMu, signature stripes), so benign traffic
	// on a raw-privacy-heavy program never serializes behind the fix/proof
	// state mu protects.
	var families map[int][]*trace.Trace
	var toSynthesize []pendingSynthesis
	for i := 0; i < n; i++ {
		if v.Mode(i) == trace.CaptureCoordinated && singleThreaded {
			if fam, complete := st.bufferCoordinated(v.Materialize(i)); complete {
				if families == nil {
					families = make(map[int][]*trace.Trace)
				}
				families[i] = fam
			}
		}
		if v.Privacy(i) == trace.PrivacyRaw && v.Outcome(i) == prog.OutcomeOK && v.NumInputs(i) > 0 {
			sc.input = v.AppendInput(sc.input[:0], i)
			st.harvestKnownGood(sc.input)
		}
		if v.Outcome(i).IsFailure() {
			sc.sig = v.FailureSignature(sc.sig[:0], i)
			i := i
			rec, elected := st.failures.record(string(sc.sig), v.PodID(i), v.Outcome(i),
				func() *trace.Trace { return v.Materialize(i) }, live)
			if elected {
				// The sample is the materialized trigger trace; synthesis
				// reads it after the batch's locks are gone.
				toSynthesize = append(toSynthesize, pendingSynthesis{rec: rec, tr: rec.sample})
			}
		}
	}
	st.ingested.Add(int64(n))

	// Pass 2 (lock-free) — path expansion and tree merging, in batch order:
	// external-only traces reconstruct to full paths (on failure they merge
	// at recorded granularity; the tree stays sound, only less detailed),
	// completed coordinated families narrow, everything else merges at
	// recorded granularity straight from the view.
	var reconstructed, narrowed int64
	for i := 0; i < n; i++ {
		outcome := v.Outcome(i)
		var path []trace.BranchEvent
		if v.Mode(i) == trace.CaptureExternalOnly && singleThreaded {
			if full, err := exectree.Reconstruct(st.prog, v.Materialize(i)); err == nil {
				path = full
				reconstructed++
			}
		}
		if fam, ok := families[i]; ok {
			if full, ok := narrowFamily(st.prog, fam, outcome); ok {
				path = full
				narrowed++
			}
		}
		if path == nil {
			sc.path = v.AppendBranches(sc.path[:0], i)
			path = sc.path
		}
		st.tree.Merge(path, outcome)
	}
	if reconstructed > 0 {
		st.reconstructed.Add(reconstructed)
	}
	if narrowed > 0 {
		st.narrowed.Add(narrowed)
	}

	// Pass 3 — synthesize fixes for the signatures this batch saw first.
	// Rare (once per signature ever), and single-flight by construction.
	for _, p := range toSynthesize {
		h.synthesizeFix(st, p.rec, p.tr)
	}
}

// harvestKnownGood records a raw input observed to succeed, bounded, under
// the dedicated known-good stripe.
func (st *programState) harvestKnownGood(input []int64) {
	st.kgMu.Lock()
	if len(st.knownGood) < 1024 {
		st.knownGood = append(st.knownGood, append([]int64(nil), input...))
	}
	st.kgMu.Unlock()
}

// knownGoodSnapshot copies the known-good input set under its stripe.
func (st *programState) knownGoodSnapshot() [][]int64 {
	st.kgMu.Lock()
	defer st.kgMu.Unlock()
	return append([][]int64(nil), st.knownGood...)
}

// bufferCoordinated appends a coordinated-sampling fragment to its family
// buffer, under the dedicated coordination stripe. When the last missing
// phase arrives the family is removed from the buffer and returned for
// narrowing.
func (st *programState) bufferCoordinated(tr *trace.Trace) ([]*trace.Trace, bool) {
	key := fmt.Sprintf("%s|%s|%s|%d|%d", tr.InputDigest, tr.ScheduleHash, tr.Outcome, tr.SampleK, tr.FaultPC)
	st.coordMu.Lock()
	defer st.coordMu.Unlock()
	if st.coordinated == nil {
		st.coordinated = make(map[string][]*trace.Trace)
	}
	if len(st.coordinated) >= maxCoordinatedFamilies {
		// Bounded buffer: reset rather than grow without limit on a hostile
		// or lossy fleet (incomplete families are abandoned).
		st.coordinated = make(map[string][]*trace.Trace)
	}
	st.coordinated[key] = append(st.coordinated[key], tr.Clone())
	family := st.coordinated[key]
	if len(trace.MissingPhases(family, tr.SampleK)) != 0 {
		return nil, false
	}
	delete(st.coordinated, key)
	return family, true
}

// narrowFamily combines a completed fragment family into per-site directions
// and reconstructs the full path (paper §3.1 narrowing). It is pure with
// respect to hive state and runs outside any lock.
func narrowFamily(p *prog.Program, family []*trace.Trace, outcome prog.Outcome) ([]trace.BranchEvent, bool) {
	sites, err := trace.CombineCoordinated(family)
	if err != nil {
		return nil, false
	}
	var sysRet []int64
	for _, s := range family[0].Syscalls {
		sysRet = append(sysRet, s.Ret)
	}
	full, got, err := exectree.ReconstructFromSites(p, sites, sysRet, family[0].Steps*2+1024)
	if err != nil || got != outcome {
		return nil, false
	}
	return full, true
}

// synthesizeFix mints a fix for a newly observed failure signature:
// deadlocks become immunity signatures; input-triggered crashes and
// assertion failures become validated input guards; everything else goes to
// the repair lab. Exactly one call ever happens per signature (single-flight
// via failureRecord.synthesizing), so concurrent traces carrying the same
// new signature cannot mint duplicate fixes or double-bump the epoch.
func (h *Hive) synthesizeFix(st *programState, rec *failureRecord, tr *trace.Trace) {
	var minted *fix.Fix
	switch tr.Outcome {
	case prog.OutcomeDeadlock:
		if len(tr.Deadlock) > 0 {
			sig := deadlock.FromWaits(tr.Deadlock)
			minted = &fix.Fix{
				ProgramID:       st.prog.ID,
				Kind:            fix.KindDeadlockImmunity,
				TargetSignature: rec.signature,
				Deadlock:        &sig,
			}
		}
	case prog.OutcomeCrash, prog.OutcomeAssertFail:
		minted = h.synthesizeInputGuard(st, rec, tr)
	}

	if minted == nil || minted.Validate() != nil {
		st.failures.finishSynthesis(rec, false)
		h.journalSynthesis(st, rec.signature, nil)
		return
	}
	minted.Validated = true
	st.mu.Lock()
	minted.ID = st.fixes.Add(*minted)
	st.epoch++
	// New fixes invalidate standing proofs (paper §3.3: the hive must decide
	// whether instrumentation invalidates existing knowledge; we take the
	// sound route and drop them for re-proving).
	st.proofs = make(map[proof.Property]*proof.Proof)
	// Journal inside the critical section: synthesis ops land in the
	// journal in fix-ID order, so replay re-assigns identical IDs.
	h.journalSynthesis(st, rec.signature, minted)
	st.mu.Unlock()
	st.failures.finishSynthesis(rec, true)
}

// journalSynthesis appends a signature's synthesis outcome (a minted fix,
// or nil for the repair lab). Synthesis runs inside an ingest's checkpoint
// gate, so the op is atomic with its batch relative to checkpoints; an
// append failure degrades durability (latched in DurabilityError) without
// rejecting the already-applied batch.
func (h *Hive) journalSynthesis(st *programState, signature string, minted *fix.Fix) {
	if h.journal == nil {
		return
	}
	op := &journal.Op{Kind: journal.OpSynthesis, Signature: signature}
	if minted != nil {
		data, err := fix.Encode(minted)
		if err != nil {
			h.noteDurability(err)
			return
		}
		op.Fix = data
	}
	if err := h.journal.Append(st.prog.ID, op); err != nil {
		h.noteDurability(err)
	}
}

// readOnlyAppendThreshold is how many consecutive batch-append failures a
// program absorbs before its journal breaker opens. One failure can be a
// transient (a torn write the journal rolled back); a run of them means the
// disk is full or gone, and every retried batch would burn a write cycle to
// fail again.
const readOnlyAppendThreshold = 3

// journalBatchAppend is the batch path's write-ahead append with the
// read-only breaker wrapped around it: an open breaker refuses the batch
// immediately with pod.ErrReadOnly (no disk touch), a failed append counts
// toward opening it, and a successful append resets the count. Only a
// durably landed checkpoint closes an open breaker (see CheckpointProgram) —
// proof the disk takes writes again.
func (h *Hive) journalBatchAppend(st *programState, op *journal.Op) error {
	if st.readOnly.Load() {
		return fmt.Errorf("hive: program %s refuses ingest (guidance still served): %w", st.prog.ID, pod.ErrReadOnly)
	}
	if err := h.journal.Append(st.prog.ID, op); err != nil {
		if st.appendFails.Add(1) >= readOnlyAppendThreshold {
			if !st.readOnly.Swap(true) && h.Logf != nil {
				h.Logf("hive: program %s: %d consecutive journal append failures (%v); flipping read-only — guidance is still served, ingest refused until a checkpoint lands", st.prog.ID, readOnlyAppendThreshold, err)
			}
		}
		return fmt.Errorf("hive: journal %s: %w", st.prog.ID, err)
	}
	st.appendFails.Store(0)
	return nil
}

// ProgramReadOnly reports whether a program's journal breaker is open
// (ingest refused with pod.ErrReadOnly, guidance reads served).
func (h *Hive) ProgramReadOnly(programID string) bool {
	st, err := h.state(programID)
	if err != nil {
		return false
	}
	return st.readOnly.Load()
}

// ReadOnlyPrograms counts programs whose journal breaker is currently open.
func (h *Hive) ReadOnlyPrograms() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, st := range h.programs {
		if st.readOnly.Load() {
			n++
		}
	}
	return n
}

// noteDurability latches the first non-batch journal failure.
func (h *Hive) noteDurability(err error) {
	h.durabilityErr.CompareAndSwap(nil, &err)
}

// DurabilityError returns the first journal failure outside the batch path
// (synthesis, proof, certificate ops), or nil. Batch append failures reject
// their batch instead of degrading silently.
func (h *Hive) DurabilityError() error {
	if p := h.durabilityErr.Load(); p != nil {
		return *p
	}
	return nil
}

// sessionFor returns a session's dedup entry for the program, creating an
// empty window for a never-seen session.
func (st *programState) sessionFor(session string) *sessionEntry {
	st.sessMu.Lock()
	defer st.sessMu.Unlock()
	return st.entryLocked(session)
}

// entryLocked finds a session's entry, creating it when the session is new.
// Callers hold sessMu.
func (st *programState) entryLocked(session string) *sessionEntry {
	e, ok := st.sessions[session]
	if !ok {
		e = &sessionEntry{}
		st.sessions[session] = e
	}
	return e
}

// SessionCount returns how many distinct sessions the hive's dedup tables
// hold, over every program: a session that sent frames about several
// programs counts once, so the figure is the number of client sessions the
// hive has deduped, as it was when the table was hive-wide. The second
// result is always 0. It was the size of a second table tier that no
// longer exists, and is kept so existing callers that sum the pair (the
// fleet benchmark among them) compile and count the same sessions.
func (h *Hive) SessionCount() (sessions, zero int) {
	seen := make(map[string]struct{})
	for _, id := range h.Programs() {
		st, err := h.state(id)
		if err != nil {
			continue // dropped since Programs()
		}
		st.sessMu.Lock()
		for session := range st.sessions {
			seen[session] = struct{}{}
		}
		st.sessMu.Unlock()
	}
	return len(seen), 0
}

// sessionApplied reports whether seq is in the entry's applied window.
func (st *programState) sessionApplied(e *sessionEntry, seq uint64) bool {
	st.sessMu.Lock()
	defer st.sessMu.Unlock()
	if seq <= e.base {
		return true
	}
	_, ok := e.ahead[seq]
	return ok
}

// markSession records one applied sequence number, compacting contiguous
// marks into the base.
func (st *programState) markSession(session string, seq uint64) {
	st.sessMu.Lock()
	defer st.sessMu.Unlock()
	markAppliedLocked(st.entryLocked(session), seq)
}

// markAppliedLocked inserts seq into the entry's applied window. Callers
// hold sessMu.
func markAppliedLocked(e *sessionEntry, seq uint64) {
	if seq <= e.base {
		return
	}
	if e.ahead == nil {
		e.ahead = make(map[uint64]struct{})
	}
	e.ahead[seq] = struct{}{}
	compactWindowLocked(e)
	if len(e.ahead) > maxSessionAhead {
		// An abandoned gap is pinning the window open: slide the base to
		// the oldest retained mark (bounded-memory degradation, see
		// maxSessionAhead).
		oldest := uint64(math.MaxUint64)
		for s := range e.ahead {
			if s < oldest {
				oldest = s
			}
		}
		if oldest > e.base {
			e.base = oldest
		}
		compactWindowLocked(e)
	}
}

// compactWindowLocked restores the window invariant after base or ahead
// changed: marks at or below the base are dropped, and a contiguous run of
// marks just above it folds into the base. Callers hold sessMu.
func compactWindowLocked(e *sessionEntry) {
	for s := range e.ahead {
		if s <= e.base {
			delete(e.ahead, s)
		}
	}
	for {
		if _, ok := e.ahead[e.base+1]; !ok {
			break
		}
		delete(e.ahead, e.base+1)
		e.base++
	}
}

// sessionSnapshot copies the program's dedup table for a checkpoint: the
// contiguous base per session, plus any out-of-order applied marks above
// it. Every session the program has deduped is included, so a checkpoint +
// archive round-trip preserves exactly-once for all of them.
func (st *programState) sessionSnapshot() (map[string]uint64, map[string][]uint64) {
	st.sessMu.Lock()
	defer st.sessMu.Unlock()
	if len(st.sessions) == 0 {
		return nil, nil
	}
	bases := make(map[string]uint64, len(st.sessions))
	var ahead map[string][]uint64
	for id, e := range st.sessions {
		bases[id] = e.base
		if len(e.ahead) == 0 {
			continue
		}
		if ahead == nil {
			ahead = make(map[string][]uint64)
		}
		marks := make([]uint64, 0, len(e.ahead))
		for s := range e.ahead {
			marks = append(marks, s)
		}
		sort.Slice(marks, func(i, j int) bool { return marks[i] < marks[j] })
		ahead[id] = marks
	}
	return bases, ahead
}

// mergeSessions folds recovered dedup windows into the program's table
// (union-merge: applied marks only ever accumulate, so merging snapshot and
// replayed-op views in any order converges).
func (st *programState) mergeSessions(bases map[string]uint64, ahead map[string][]uint64) {
	st.sessMu.Lock()
	defer st.sessMu.Unlock()
	for id, base := range bases {
		e := st.entryLocked(id)
		if base > e.base {
			e.base = base
			compactWindowLocked(e)
		}
	}
	for id, marks := range ahead {
		e := st.entryLocked(id)
		for _, seq := range marks {
			markAppliedLocked(e, seq)
		}
	}
}

// synthesizeInputGuard derives a danger-zone guard from the failing trace's
// path condition. Privacy-friendly: it does not need the raw input — the
// recorded input-dependent branch directions are replayed symbolically
// (forced run) to recover the path condition.
func (h *Hive) synthesizeInputGuard(st *programState, rec *failureRecord, tr *trace.Trace) *fix.Fix {
	if st.sym == nil {
		return nil
	}
	// Extract the input-dependent decisions from the trace.
	var forced []trace.BranchEvent
	for _, be := range tr.Branches {
		if st.prog.InputDependent(int(be.ID)) {
			forced = append(forced, be)
		}
	}
	base := make([]int64, st.prog.NumInputs)
	path, err := st.sym.RunForced(base, forced)
	if err != nil || !path.Outcome.IsFailure() {
		return nil
	}
	cond := path.Condition()
	if len(cond) == 0 {
		return nil
	}

	safe := h.safeInput(st, cond)
	if safe == nil {
		return nil
	}
	guard := &fix.InputGuard{Danger: fix.TermsFromCondition(cond), SafeInput: safe}

	// Validation against collective knowledge: no known-good input may fall
	// in the danger zone (the fix must not change any previously-correct
	// behaviour).
	goodInputs := st.knownGoodSnapshot()
	for _, g := range goodInputs {
		if guard.Matches(g) {
			return nil
		}
	}
	return &fix.Fix{
		ProgramID:       st.prog.ID,
		Kind:            fix.KindInputGuard,
		TargetSignature: rec.signature,
		Guard:           guard,
	}
}

// safeInput picks a replacement input outside the danger zone: a known-good
// input when available, otherwise one synthesized by solving the negated
// condition.
func (h *Hive) safeInput(st *programState, danger constraint.PathCondition) []int64 {
	goodInputs := st.knownGoodSnapshot()
	holds := func(input []int64) bool {
		assign := make(map[int]int64, len(input))
		for i, v := range input {
			assign[i] = v
		}
		return danger.Holds(assign)
	}
	for _, g := range goodInputs {
		if !holds(g) {
			return g
		}
	}
	// Negate the last constraint: stays on the same path prefix, exits the
	// danger zone.
	neg := danger.Clone()
	neg[len(neg)-1] = neg[len(neg)-1].Negate()
	res := (&constraint.Solver{Domain: st.sym.Domain()}).Solve(neg)
	if res.Verdict != constraint.SAT {
		return nil
	}
	out := make([]int64, st.prog.NumInputs)
	for v, val := range res.Model {
		if v < len(out) {
			out[v] = val
		}
	}
	if holds(out) {
		return nil
	}
	return out
}

// FixesSince implements the pod-facing fix distribution API.
func (h *Hive) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	fixes, cur := st.fixes.Since(version)
	return fixes, cur, nil
}

// Guidance implements the pod-facing steering API: test cases toward the
// program's current coverage gaps. The generator and tree synchronize
// internally, so guidance requests never touch the program shard lock; the
// checkpoint gate is held because the generator may certify refuted
// frontiers infeasible — a journaled mutation.
func (h *Hive) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	return st.gen.Generate(st.tree, max), nil
}

// Prove attempts a cumulative proof of the property for the program,
// reusing a standing proof when the tree and fixes have not changed its
// validity.
func (h *Hive) Prove(programID string, property proof.Property) (*proof.Proof, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if pr, ok := st.proofs[property]; ok && pr.Epoch == st.epoch {
		st.mu.Unlock()
		return pr, nil
	}
	sym := st.sym
	epoch := st.epoch
	st.mu.Unlock()

	if sym == nil {
		return nil, fmt.Errorf("hive: proofs for multi-threaded program %s not supported", programID)
	}
	// The attempt mutates the tree (synthesized evidence merges,
	// certificates); hold the checkpoint gate so the whole attempt and its
	// journal op are atomic relative to snapshots.
	st.ckpt.RLock()
	defer st.ckpt.RUnlock()
	engine := proof.NewEngine(st.prog, sym)
	pr, err := engine.Attempt(st.tree, property, epoch)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.proofs[property] = pr
	if h.journal != nil {
		// The op carries the proof and its merged evidence; certificates
		// minted during the attempt were journaled by the tree's certify
		// observer as they happened.
		if data, encErr := proof.Encode(pr); encErr != nil {
			h.noteDurability(encErr)
		} else if aerr := h.journal.Append(st.prog.ID, &journal.Op{Kind: journal.OpProof, Proof: data}); aerr != nil {
			h.noteDurability(aerr)
		}
	}
	st.mu.Unlock()
	return pr, nil
}

// PublishedProofs returns the standing (non-invalidated) proofs for a
// program — the paper's "for correct behaviors, SoftBorg's hive produces
// and publishes proofs of P's properties".
func (h *Hive) PublishedProofs(programID string) ([]*proof.Proof, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*proof.Proof, 0, len(st.proofs))
	for _, pr := range st.proofs {
		if pr.Epoch == st.epoch {
			out = append(out, pr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Property < out[j].Property })
	return out, nil
}

// Reproducer derives a concrete test case that reproduces a recorded
// failure signature — the artifact the repair lab hands a developer. It
// works even at hashed/opaque privacy: the sample trace's recorded
// input-dependent branch directions are replayed symbolically and the
// resulting path condition is solved for *an* input that takes the same
// path (not necessarily the user's input — deliberately so).
func (h *Hive) Reproducer(programID, signature string) (guidance.TestCase, error) {
	st, err := h.state(programID)
	if err != nil {
		return guidance.TestCase{}, err
	}
	rec := st.failures.get(signature)
	if rec == nil || rec.sample == nil {
		return guidance.TestCase{}, fmt.Errorf("hive: no failure record %q for program %s", signature, programID)
	}
	// sample and sym are immutable once published.
	sample := rec.sample.Clone()
	sym := st.sym

	if sym == nil {
		return guidance.TestCase{}, fmt.Errorf("hive: reproducer for multi-threaded program %s not supported", programID)
	}

	var forced []trace.BranchEvent
	for _, be := range sample.Branches {
		if st.prog.InputDependent(int(be.ID)) {
			forced = append(forced, be)
		}
	}
	base := make([]int64, st.prog.NumInputs)
	path, err := sym.RunForced(base, forced)
	if err != nil {
		return guidance.TestCase{}, fmt.Errorf("hive: reproducer replay: %w", err)
	}
	if !path.Outcome.IsFailure() {
		return guidance.TestCase{}, fmt.Errorf("hive: forced replay of %q did not fail (outcome %s)", signature, path.Outcome)
	}
	cond := path.Condition()
	res := (&constraint.Solver{Domain: sym.Domain()}).Solve(cond)
	if res.Verdict != constraint.SAT {
		return guidance.TestCase{}, fmt.Errorf("hive: reproducer path condition %s for %q", res.Verdict, signature)
	}
	input := make([]int64, st.prog.NumInputs)
	for v, val := range res.Model {
		if v < len(input) {
			input[v] = val
		}
	}
	return guidance.TestCase{
		ProgramID: programID,
		Input:     input,
		Reason:    fmt.Sprintf("reproduces failure %s", signature),
	}, nil
}

// ProveNoDeadlock attempts a bounded-schedule proof that the program —
// running under its currently distributed fixes (immunity gates) — cannot
// deadlock within the given scheduling-decision bound. This is how the hive
// verifies a deadlock fix exhaustively instead of merely observing that
// reports stopped (paper §3.3: "must reason about whether this
// instrumentation could affect P in undesired ways").
func (h *Hive) ProveNoDeadlock(programID string, input []int64, bound int) (*proof.ScheduleProof, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	var sigs []deadlock.Signature
	for _, f := range st.fixes.All() {
		if f.Kind == fix.KindDeadlockImmunity && f.Deadlock != nil {
			sigs = append(sigs, *f.Deadlock)
		}
	}
	st.mu.Unlock()

	cfg := proof.ScheduleConfig{Input: input, Bound: bound}
	if len(sigs) > 0 {
		cfg.Instruments = func() (prog.LockGate, prog.Observer) {
			g := deadlock.NewGate(sigs)
			return g, g
		}
	}
	return proof.AttemptBoundedSchedules(st.prog, proof.PropNoDeadlock, cfg)
}

// Stats is a hive-side per-program snapshot.
type Stats struct {
	ProgramID     string
	Ingested      int64
	Reconstructed int64
	// Narrowed counts coordinated-sampling families completed and merged
	// as full paths.
	Narrowed  int64
	Tree      exectree.Stats
	Failures  []FailureRecord
	FixCount  int
	Epoch     int
	RepairLab int
}

// ProgramStats returns a snapshot for one program.
func (h *Hive) ProgramStats(programID string) (Stats, error) {
	st, err := h.state(programID)
	if err != nil {
		return Stats{}, err
	}
	st.mu.Lock()
	out := Stats{
		ProgramID:     programID,
		Ingested:      st.ingested.Load(),
		Reconstructed: st.reconstructed.Load(),
		Narrowed:      st.narrowed.Load(),
		Tree:          st.tree.Stats(),
		FixCount:      st.fixes.Len(),
		Epoch:         st.epoch,
	}
	st.mu.Unlock()
	out.Failures = st.failures.snapshot()
	for _, rec := range out.Failures {
		if rec.InRepairLab {
			out.RepairLab++
		}
	}
	return out, nil
}

// Tree exposes a program's execution tree (experiments and proof drivers).
func (h *Hive) Tree(programID string) (*exectree.Tree, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	return st.tree, nil
}

// Programs lists registered program IDs.
func (h *Hive) Programs() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.programs))
	for id := range h.programs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
