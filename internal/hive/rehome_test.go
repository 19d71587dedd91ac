package hive

import (
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSessionTablePerProgram pins that the exactly-once dedup table is
// keyed by program: sessions that only sent frames about program A live in
// A's snapshot alone, the same (session, seq) about program B is a new
// frame there, dropping A forgets A's sessions, and A's export carries its
// windows so the new owner still dup-acks A's frames.
func TestSessionTablePerProgram(t *testing.T) {
	corpus := durableCorpus(t)
	a, b := corpus[0], corpus[1]
	ha, storeA := newDurableHive(t, t.TempDir(), corpus)
	defer storeA.Close()

	const n = 16
	batchA := []*trace.Trace{captureSeqTrace(t, a, "pod-iso", 1, []int64{5}, trace.PrivacyHashed)}
	for i := 0; i < n; i++ {
		if dup, err := ha.SubmitTracesSession(fmt.Sprintf("a-%d", i), 1, a.ID, batchA); err != nil || dup {
			t.Fatalf("session a-%d: dup=%v err=%v", i, dup, err)
		}
	}
	snapB, err := ha.ExportProgram(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snapB.Sessions != nil || snapB.SessionsAhead != nil {
		t.Fatalf("idle program's snapshot carries %d sessions (%d with marks ahead) of another program",
			len(snapB.Sessions), len(snapB.SessionsAhead))
	}
	snapA, err := ha.ExportProgram(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapA.Sessions) != n {
		t.Fatalf("program A's snapshot holds %d sessions, want %d", len(snapA.Sessions), n)
	}

	// Session a-0's seq 1 was applied to A; the same tag about B is a
	// different frame and must be applied, not dup-acked.
	batchB := []*trace.Trace{captureSeqTrace(t, b, "pod-iso", 2, []int64{5}, trace.PrivacyHashed)}
	if dup, err := ha.SubmitTracesSession("a-0", 1, b.ID, batchB); err != nil || dup {
		t.Fatalf("first frame about B dup-acked by A's window: dup=%v err=%v", dup, err)
	}
	if got := ingested(t, ha, b.ID); got != 1 {
		t.Fatalf("program B ingested %d traces, want 1", got)
	}
	if got, _ := ha.SessionCount(); got != n {
		t.Fatalf("SessionCount = %d, want %d distinct sessions", got, n)
	}
	ha.DropProgram(a.ID)
	if got, _ := ha.SessionCount(); got != 1 {
		t.Fatalf("after dropping A, SessionCount = %d, want 1 (only a-0 also sent to B)", got)
	}

	raw, err := journal.EncodeSnapshot(snapA)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := journal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	hb, storeB := newDurableHive(t, t.TempDir(), corpus)
	defer storeB.Close()
	if err := hb.ImportProgram(shipped); err != nil {
		t.Fatal(err)
	}
	before := ingested(t, hb, a.ID)
	for i := 0; i < n; i++ {
		if dup, err := hb.SubmitTracesSession(fmt.Sprintf("a-%d", i), 1, a.ID, batchA); err != nil || !dup {
			t.Fatalf("session a-%d re-applied on the new owner: dup=%v err=%v", i, dup, err)
		}
	}
	if got := ingested(t, hb, a.ID); got != before {
		t.Fatalf("duplicates moved ingest on the new owner: %d -> %d", before, got)
	}
}

// TestExportImportRoundTrip re-homes a program between two durable hives:
// export on A (after real ingest with sequenced sessions), ship as bytes,
// import on B. B must answer resubmitted (session, seq) frames as
// duplicates — exactly-once survives the move — and B's own restart must
// recover the imported state from B's data dir alone.
func TestExportImportRoundTrip(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dirA, dirB := t.TempDir(), t.TempDir()
	ha, storeA := newDurableHive(t, dirA, corpus)
	defer storeA.Close()

	rng := stats.NewRNG(11)
	const session = "sess-rehome"
	var batches [][]*trace.Trace
	for i := 0; i < 6; i++ {
		var batch []*trace.Trace
		for j := 0; j < 4; j++ {
			batch = append(batch, captureSeqTrace(t, p, "pod-r", uint64(i*4+j), []int64{rng.Int63n(256)}, trace.PrivacyHashed))
		}
		batches = append(batches, batch)
		if dup, err := ha.SubmitTracesSession(session, uint64(i+1), p.ID, batch); err != nil || dup {
			t.Fatalf("submit %d: dup=%v err=%v", i, dup, err)
		}
	}
	statsA, err := ha.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Ship as bytes: the wire form must round-trip bit-exactly.
	raw, err := journal.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := journal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}

	hb, storeB := newDurableHive(t, dirB, corpus)
	if err := hb.ImportProgram(shipped); err != nil {
		t.Fatal(err)
	}
	statsB, err := hb.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Ingested != statsA.Ingested || statsB.Tree.Paths != statsA.Tree.Paths || statsB.FixCount != statsA.FixCount {
		t.Fatalf("imported stats diverge: A ingested=%d paths=%d fixes=%d, B ingested=%d paths=%d fixes=%d",
			statsA.Ingested, statsA.Tree.Paths, statsA.FixCount, statsB.Ingested, statsB.Tree.Paths, statsB.FixCount)
	}

	// Frames the old owner acknowledged must dup-ack on the new owner: the
	// session table traveled with the snapshot.
	for i, batch := range batches {
		dup, err := hb.SubmitTracesSession(session, uint64(i+1), p.ID, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Fatalf("frame %d re-applied after re-homing (exactly-once broken)", i)
		}
	}
	after, _ := hb.ProgramStats(p.ID)
	if after.Ingested != statsA.Ingested {
		t.Fatalf("ingested moved on duplicate resubmission: %d -> %d", statsA.Ingested, after.Ingested)
	}
	// And new frames keep flowing on the new owner.
	if dup, err := hb.SubmitTracesSession(session, 100, p.ID, batches[0][:1]); err != nil || dup {
		t.Fatalf("fresh frame on new owner: dup=%v err=%v", dup, err)
	}

	// The import checkpointed on B: a restart from B's dir alone recovers
	// the re-homed state, old owner's data dir not required.
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}
	hb2, storeB2 := newDurableHive(t, dirB, corpus)
	defer storeB2.Close()
	recovered, err := hb2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Ingested != statsA.Ingested+1 {
		t.Fatalf("recovered ingested = %d, want %d", recovered.Ingested, statsA.Ingested+1)
	}
	if dup, err := hb2.SubmitTracesSession(session, 3, p.ID, batches[2]); err != nil || !dup {
		t.Fatalf("recovered new owner lost dedup state: dup=%v err=%v", dup, err)
	}
}

// TestImportGuards: imports into an unregistered or already-populated
// program must fail loudly instead of merging histories.
func TestImportGuards(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	ha := New("fleet")
	for _, pr := range corpus {
		if err := ha.RegisterProgram(pr); err != nil {
			t.Fatal(err)
		}
	}
	tr := captureSeqTrace(t, p, "pod-g", 1, []int64{3}, trace.PrivacyHashed)
	if _, err := ha.SubmitTracesSession("s", 1, p.ID, []*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	snap, err := ha.ExportProgram(p.ID)
	if err != nil {
		t.Fatal(err)
	}

	empty := New("fleet")
	if err := empty.ImportProgram(snap); err == nil {
		t.Fatal("import into a hive without the program registered must fail")
	}
	if err := ha.ImportProgram(snap); err == nil {
		t.Fatal("import over a program that already ingested must fail")
	}
	if err := ha.ImportProgram(&journal.ProgramSnapshot{ProgramID: p.ID}); err == nil {
		t.Fatal("import of a tree-less snapshot must fail")
	}

	// DropProgram forgets the program; subsequent frames err cleanly.
	ha.DropProgram(p.ID)
	if _, err := ha.SubmitTracesSession("s", 2, p.ID, []*trace.Trace{tr}); err == nil {
		t.Fatal("dropped program still accepts frames")
	}
	ha.DropProgram(p.ID) // idempotent
}

// TestExportFromStore is the takeover path: a dead hive's data dir is
// recovered by a scratch hive and its programs exported for survivors.
func TestExportFromStore(t *testing.T) {
	corpus := durableCorpus(t)
	p := corpus[0]
	dir := t.TempDir()
	ha, storeA := newDurableHive(t, dir, corpus)
	tr := captureSeqTrace(t, p, "pod-t", 1, []int64{9}, trace.PrivacyHashed)
	if _, err := ha.SubmitTracesSession("s-dead", 1, p.ID, []*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	if err := storeA.Close(); err != nil { // the "crash"
		t.Fatal(err)
	}

	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	snaps, err := ExportFromStore(store2, corpus, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := snaps[p.ID]
	if !ok || len(snap.Tree) == 0 {
		t.Fatalf("takeover export missing program %s (got %d snapshots)", p.ID, len(snaps))
	}
	hb := New("fleet")
	for _, pr := range corpus {
		if err := hb.RegisterProgram(pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := hb.ImportProgram(snap); err != nil {
		t.Fatal(err)
	}
	if dup, err := hb.SubmitTracesSession("s-dead", 1, p.ID, []*trace.Trace{tr}); err != nil || !dup {
		t.Fatalf("acked frame from the dead hive re-applied: dup=%v err=%v", dup, err)
	}
}
