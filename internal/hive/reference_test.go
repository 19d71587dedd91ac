package hive

import (
	"repro/internal/exectree"
	"repro/internal/prog"
	"repro/internal/trace"
)

// applyBatch is the per-trace reference apply: it folds one program's
// materialized trace batch into the hive phase by phase, with no journal.
// The hive ingests only through applyBatchView; TestColumnarIngestMatchesV2
// holds that path to this one, which reads every field off a Trace and so
// is the plain statement of what ingesting a batch means. live
// distinguishes fresh ingestion from journal replay: replay never
// re-elects fix synthesis.
//
// Evidence visibility is batch-granular: known-good inputs harvested
// anywhere in the batch are visible when fixes for the batch's failures are
// validated (phase 4 runs after phase 2). A guard candidate therefore
// competes against strictly more collective knowledge than under per-trace
// ingestion — failing validation routes the signature to the repair lab
// rather than shipping a guard that contradicts an observed-good input.
func (h *Hive) applyBatch(st *programState, batch []*trace.Trace, live bool) {
	singleThreaded := st.prog.NumThreads() == 1

	// Phase 1 (lock-free): expand external-only traces to full paths —
	// reconstruction replays the immutable program. On failure fall back to
	// merging at recorded granularity; the tree stays sound, only less
	// detailed.
	paths := make([][]trace.BranchEvent, len(batch))
	var reconstructed int64
	for i, tr := range batch {
		paths[i] = tr.Branches
		if tr.Mode == trace.CaptureExternalOnly && singleThreaded {
			if full, err := exectree.Reconstruct(st.prog, tr); err == nil {
				paths[i] = full
				reconstructed++
			}
		}
	}

	// Phase 2 (no shard lock at all): coordinated fragment buffering,
	// known-good harvesting, and counters each ride their own striped
	// synchronization — coordMu, kgMu, and atomics — so benign traffic on a
	// raw-privacy-heavy program never serializes behind the fix/proof state
	// mu protects. Failure aggregation runs after, striped per signature.
	var families map[int][]*trace.Trace // batch index -> completed family
	for i, tr := range batch {
		if tr.Mode == trace.CaptureCoordinated && singleThreaded {
			if fam, complete := st.bufferCoordinated(tr); complete {
				if families == nil {
					families = make(map[int][]*trace.Trace)
				}
				families[i] = fam
			}
		}
		if tr.Privacy == trace.PrivacyRaw && tr.Outcome == prog.OutcomeOK && len(tr.Input) > 0 {
			st.harvestKnownGood(tr.Input)
		}
	}
	st.ingested.Add(int64(len(batch)))
	st.reconstructed.Add(reconstructed)

	// Striped failure aggregation and the single-flight synthesis election,
	// in batch order.
	var toSynthesize []pendingSynthesis
	for _, tr := range batch {
		if !tr.Outcome.IsFailure() {
			continue
		}
		if rec, elected := st.failures.record(tr.FailureSignature(), tr.PodID, tr.Outcome, tr.Clone, live); elected {
			toSynthesize = append(toSynthesize, pendingSynthesis{rec: rec, tr: tr})
		}
	}

	// Phase 3 (lock-free): narrow completed coordinated families and merge
	// every path into the internally synchronized tree, in batch order.
	var narrowed int64
	for i, tr := range batch {
		if fam, ok := families[i]; ok {
			// The fragment completed its family: merge the narrowed full
			// path instead of the fragment. If narrowing fails the family is
			// incomplete evidence (or ambiguous); merge the fragment at
			// recorded granularity so the evidence still counts.
			if full, ok := narrowFamily(st.prog, fam, tr.Outcome); ok {
				paths[i] = full
				narrowed++
			}
		}
		st.tree.Merge(paths[i], tr.Outcome)
	}
	if narrowed > 0 {
		st.narrowed.Add(narrowed)
	}

	// Phase 4: synthesize fixes for the signatures this batch saw first.
	// Rare (once per signature ever), and single-flight by construction.
	for _, p := range toSynthesize {
		//lint:allow journalfirst test-only reference apply; it never runs against a journaled hive
		h.synthesizeFix(st, p.rec, p.tr)
	}
}
