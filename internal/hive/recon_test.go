package hive

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/race"
	"repro/internal/trace"
)

// buildDetCrashy generates a crashing program with deterministic branch
// diamonds and syscall-dependent branches, so an external-only trace
// records strictly less than its reconstructed path and its replay key
// carries a syscall slab.
func buildDetCrashy(t testing.TB) *prog.Program {
	t.Helper()
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 6101, Depth: 5, NumInputs: 1, DetBranches: 6, Syscalls: 1,
		Domain: 160, TriggerWidth: 24, Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// captureExternal runs p on each input under external-only capture.
func captureExternal(t testing.TB, p *prog.Program, podID string, inputs [][]int64) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, len(inputs))
	for i, input := range inputs {
		col := trace.NewCollector(p, trace.CaptureExternalOnly, 0, uint64(i+1))
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = col.Finish(podID, uint64(i), m.Run(), input, trace.PrivacyHashed, "fleet")
	}
	return out
}

// submitView encodes one program's batch and ingests it through the view
// path.
func submitView(t testing.TB, h *Hive, programID string, batch []*trace.Trace) {
	t.Helper()
	if err := ingestEncoded(h, programID, batch); err != nil {
		t.Fatal(err)
	}
}

// ingestEncoded is submitView for goroutines other than the test's own.
func ingestEncoded(h *Hive, programID string, batch []*trace.Trace) error {
	enc, err := trace.EncodeBatch(programID, batch)
	if err != nil {
		return err
	}
	view, err := trace.DecodeBatch(enc)
	if err != nil {
		return err
	}
	defer view.Release()
	_, err = h.SubmitColumnarSession("", 0, view)
	return err
}

// assertSameProgram requires byte-equal tree encodings and equal stats
// (Reconstructed included; failure samples compared by content).
func assertSameProgram(t *testing.T, label string, want, got *Hive, programID string) {
	t.Helper()
	ws, err := want.ProgramStats(programID)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.ProgramStats(programID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Failures) != len(gs.Failures) {
		t.Fatalf("%s: %d failure records, want %d", label, len(gs.Failures), len(ws.Failures))
	}
	for i := range ws.Failures {
		a, b := ws.Failures[i], gs.Failures[i]
		if !reflect.DeepEqual(a.Sample, b.Sample) {
			t.Fatalf("%s: failure %q sample differs", label, a.Signature)
		}
		a.Sample, b.Sample = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: failure record %d differs:\nwant %+v\ngot  %+v", label, i, a, b)
		}
	}
	ws.Failures, gs.Failures = nil, nil
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: stats differ:\nwant %+v\ngot  %+v", label, ws, gs)
	}
	wt, _ := want.Tree(programID)
	gt, _ := got.Tree(programID)
	if !bytes.Equal(wt.Encode(), gt.Encode()) {
		t.Fatalf("%s: execution trees differ", label)
	}
}

// reconCounts reads the memo's hit and miss counters.
func reconCounts(h *Hive) (hits, misses int64) {
	h.recon.mu.Lock()
	defer h.recon.mu.Unlock()
	return h.recon.hits, h.recon.misses
}

// TestReconMemoMatchesReference is the memo's correctness proof: the mixed
// corpus, submitted three times through the view path (the second and third
// passes are all memo hits), leaves each program exactly as the per-trace
// reference apply leaves it — the reference calls exectree.Reconstruct on
// every external-only trace. A hive recovered from the journal, with a cold
// memo, equals the live one.
func TestReconMemoMatchesReference(t *testing.T) {
	corpus := []*prog.Program{buildCrashy(t), buildDetCrashy(t)}
	dir := t.TempDir()
	hView, store := newDurableHive(t, dir, corpus)
	hRef := New("fleet")
	for _, p := range corpus {
		if err := hRef.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	const chunk = 16
	var firstMisses int64
	for pass := 0; pass < 3; pass++ {
		for _, p := range corpus {
			traces := captureMixed(t, p, 96)
			stRef, err := hRef.state(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(traces); off += chunk {
				batch := traces[off : off+chunk]
				hRef.applyBatch(stRef, batch, true)
				submitView(t, hView, p.ID, batch)
			}
		}
		hits, misses := reconCounts(hView)
		switch pass {
		case 0:
			if misses == 0 {
				t.Fatal("first pass reconstructed nothing")
			}
			firstMisses = misses
		default:
			if misses != firstMisses {
				t.Fatalf("pass %d replayed %d paths; every key was memoized in pass 0", pass, misses-firstMisses)
			}
			if hits == 0 {
				t.Fatalf("pass %d: no memo hits", pass)
			}
		}
	}
	for _, p := range corpus {
		s, err := hView.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.Reconstructed == 0 || s.FixCount == 0 {
			t.Fatalf("program %s: corpus did not exercise reconstruction and synthesis: %+v", p.Name, s)
		}
		assertSameProgram(t, "view vs reference "+p.Name, hRef, hView, p.ID)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, store2 := newDurableHive(t, dir, corpus)
	defer store2.Close()
	if _, misses := reconCounts(recovered); misses == 0 {
		t.Fatal("recovery replay did not go through the memo")
	}
	for _, p := range corpus {
		assertSameProgram(t, "recovered vs live "+p.Name, hView, recovered, p.ID)
	}
}

// TestReconMemoFailedReplay memoizes a failed replay: an external-only
// trace whose recorded outcome the replay cannot reproduce merges at
// recorded granularity on the miss and on every later hit, exactly as the
// reference apply merges it.
func TestReconMemoFailedReplay(t *testing.T) {
	p := buildDetCrashy(t)
	var bad *trace.Trace
	for _, tr := range captureExternal(t, p, "pod-0", [][]int64{{1}, {2}, {3}}) {
		if tr.Outcome == prog.OutcomeOK && len(tr.Branches) > 0 {
			bad = tr
			break
		}
	}
	if bad == nil {
		t.Fatal("no benign external-only trace to corrupt")
	}
	// A recorded outcome the deterministic replay never reaches.
	bad.Outcome = prog.OutcomeAssertFail

	hView, hRef := New("fleet"), New("fleet")
	for _, h := range []*Hive{hView, hRef} {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	stRef, err := hRef.state(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		batch := []*trace.Trace{bad}
		hRef.applyBatch(stRef, batch, true)
		submitView(t, hView, p.ID, batch)
	}
	if hits, misses := reconCounts(hView); misses != 1 || hits != 2 {
		t.Fatalf("memo hits/misses = %d/%d, want 2/1", hits, misses)
	}
	s, err := hView.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.Reconstructed != 0 || s.Ingested != 3 {
		t.Fatalf("failed replays counted as reconstructed: %+v", s)
	}
	assertSameProgram(t, "failed replay", hRef, hView, p.ID)
}

// memoCharge is what the memo's two generations hold, charged as
// putLocked charges them.
func memoCharge(c *reconCache) (entries, charged int) {
	for _, m := range []map[string]string{c.cur, c.old} {
		for _, e := range m {
			entries++
			charged += len(e) + reconEntryOverhead
		}
	}
	return entries, charged
}

// TestReconMemoBounded: whatever the entries' sizes, the memo holds at most
// two generations' bytes, and an entry hit in the old generation moves back
// into the current one and survives the next retirement.
func TestReconMemoBounded(t *testing.T) {
	for _, valLen := range []int{2, reconMaxEntry / 2, reconMaxEntry - 16} {
		var c reconCache
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
		val := string(bytes.Repeat([]byte{reconOK}, valLen))
		put := func(i int) { c.put(string(key(i))+val, len(key(i))) }
		// Enough distinct keys for five generations; key 0 is hit often
		// enough (every half generation) to stay, key 1 never again.
		perGen := reconGenBytes / (len(key(0)) + valLen + reconEntryOverhead)
		put(0)
		for i := 1; i < 5*perGen; i++ {
			put(i)
			if c.curBytes > reconGenBytes {
				t.Fatalf("value %d B: after %d distinct keys a generation is charged %d B, bound %d", valLen, i+1, c.curBytes, reconGenBytes)
			}
			if i%max(perGen/16, 1) == 0 {
				if _, charged := memoCharge(&c); charged > 2*reconGenBytes {
					t.Fatalf("value %d B: after %d distinct keys the memo is charged %d B, bound %d", valLen, i+1, charged, 2*reconGenBytes)
				}
			}
			if i%max(perGen/2, 1) == 0 {
				if got, ok := c.get(key(0)); !ok || got != val {
					t.Fatalf("value %d B: a key hit every half generation was lost after %d inserts", valLen, i+1)
				}
			}
		}
		if _, ok := c.get(key(1)); ok {
			t.Fatalf("value %d B: a key never hit again survived five generations", valLen)
		}
	}
}

// TestReconMemoSkipsOversizedTraces: an external-only trace whose replay key
// is longer than reconMaxEntry (here, a forged one padded with branch events
// no replay reproduces) is replayed each time and never memoized, so a pod
// cannot fill the memo with large traces; it still merges exactly as the
// reference apply merges it.
func TestReconMemoSkipsOversizedTraces(t *testing.T) {
	p := buildDetCrashy(t)
	forged := captureExternal(t, p, "pod-0", [][]int64{{1}})[0]
	for len(forged.Branches) < reconMaxEntry {
		forged.Branches = append(forged.Branches, trace.BranchEvent{ID: 1 << 20, Taken: true})
	}
	hView, hRef := New("fleet"), New("fleet")
	for _, h := range []*Hive{hView, hRef} {
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	stRef, err := hRef.state(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		batch := []*trace.Trace{forged}
		hRef.applyBatch(stRef, batch, true)
		submitView(t, hView, p.ID, batch)
	}
	hView.recon.mu.Lock()
	entries, charged := memoCharge(&hView.recon)
	hView.recon.mu.Unlock()
	if entries != 0 {
		t.Fatalf("an oversized trace was memoized: %d entries, %d B", entries, charged)
	}
	if hits, _ := reconCounts(hView); hits != 0 {
		t.Fatalf("an oversized trace hit the memo %d times", hits)
	}
	assertSameProgram(t, "oversized trace", hRef, hView, p.ID)
}

// TestReconMemoProgramLifetime: after DropProgram, a different program
// registered — or registered and imported into — under the old ID is never
// served a path memoized for the old instance.
func TestReconMemoProgramLifetime(t *testing.T) {
	a := buildCrashy(t)
	// b shares a's ID and its input-dependent branches, but halts through a
	// deterministic diamond a lacks: a's memoized paths are wrong for b.
	bb := prog.NewBuilder("crashy-det", 1)
	hi, end, skip := bb.NewLabel(), bb.NewLabel(), bb.NewLabel()
	bb.Input(0, 0)
	bb.BrImm(0, prog.CmpGE, 100, hi)
	bb.Jmp(end)
	bb.Bind(hi)
	inner := bb.NewLabel()
	bb.BrImm(0, prog.CmpLT, 110, inner)
	bb.Jmp(end)
	bb.Bind(inner)
	bb.Const(1, 0)
	bb.Div(2, 1, 1)
	bb.Bind(end)
	bb.Const(3, 7)
	bb.BrImm(3, prog.CmpLT, 9, skip)
	bb.Bind(skip)
	bb.Halt()
	b := bb.MustBuild()
	b.ID = a.ID

	traces := captureExternal(t, a, "pod-0", [][]int64{{5}, {50}, {120}, {5}})

	for _, viaImport := range []bool{false, true} {
		h := New("fleet")
		if err := h.RegisterProgram(a); err != nil {
			t.Fatal(err)
		}
		submitView(t, h, a.ID, traces)
		snap, err := h.ExportProgram(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		h.DropProgram(a.ID)
		if err := h.RegisterProgram(b); err != nil {
			t.Fatal(err)
		}
		fresh := New("fleet")
		if err := fresh.RegisterProgram(b); err != nil {
			t.Fatal(err)
		}
		if viaImport {
			for _, x := range []*Hive{h, fresh} {
				if err := x.ImportProgram(snap); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, missesBefore := reconCounts(h)
		submitView(t, h, b.ID, traces)
		submitView(t, fresh, b.ID, traces)
		if _, misses := reconCounts(h); misses == missesBefore {
			t.Fatalf("import=%v: the re-registered program was served the dropped one's paths", viaImport)
		}
		assertSameProgram(t, fmt.Sprintf("re-registered (import=%v)", viaImport), fresh, h, b.ID)
	}
}

// TestReconMemoConcurrent races two submitters over overlapping
// external-only batches for two programs through the shared memo (run it
// under -race); the result must equal a sequential ingest of the same
// batches.
func TestReconMemoConcurrent(t *testing.T) {
	corpus := []*prog.Program{buildCrashy(t), buildDetCrashy(t)}
	inputs := make([][]int64, 64)
	for i := range inputs {
		inputs[i] = []int64{int64(i * 37 % 160)}
	}
	batches := make(map[string][]*trace.Trace)
	for _, p := range corpus {
		batches[p.ID] = captureExternal(t, p, "pod-0", inputs)
	}
	hConc, hSeq := New("fleet"), New("fleet")
	for _, h := range []*Hive{hConc, hSeq} {
		for _, p := range corpus {
			if err := h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 4
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range corpus {
					p := corpus[(g+k)%len(corpus)]
					tr := batches[p.ID]
					// Overlapping halves: both submitters send the middle.
					if err := ingestEncoded(hConc, p.ID, tr[g*16:g*16+48]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < 2; g++ {
		for r := 0; r < rounds; r++ {
			for _, p := range corpus {
				submitView(t, hSeq, p.ID, batches[p.ID][g*16:g*16+48])
			}
		}
	}
	for _, p := range corpus {
		s, err := hConc.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.Reconstructed != 2*rounds*48 {
			t.Fatalf("program %s: reconstructed %d, want %d", p.Name, s.Reconstructed, 2*rounds*48)
		}
		// Which racing trace became a failure's sample is arrival order;
		// the tree and the counters are not.
		ws, err := hSeq.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Ingested != s.Ingested || ws.Reconstructed != s.Reconstructed || !reflect.DeepEqual(ws.Tree, s.Tree) {
			t.Fatalf("program %s: stats differ:\nsequential %+v\nconcurrent %+v", p.Name, ws, s)
		}
		wt, _ := hSeq.Tree(p.ID)
		gt, _ := hConc.Tree(p.ID)
		if !bytes.Equal(wt.Encode(), gt.Encode()) {
			t.Fatalf("program %s: execution trees differ", p.Name)
		}
	}
}

// TestAllocsApplyExternalOnlyHit: once every path in a batch is memoized,
// ingesting it again allocates nothing per trace.
func TestAllocsApplyExternalOnlyHit(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	p := buildDetCrashy(t)
	inputs := make([][]int64, 160)
	for i := range inputs {
		inputs[i] = []int64{int64(i)}
	}
	var traces []*trace.Trace
	for len(traces) < 64 {
		for _, tr := range captureExternal(t, p, "pod-0", inputs) {
			if tr.Outcome == prog.OutcomeOK && len(traces) < 64 {
				traces = append(traces, tr)
			}
		}
	}
	h := New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	enc, err := trace.EncodeBatch(p.ID, traces)
	if err != nil {
		t.Fatal(err)
	}
	view, err := trace.DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	// Warm the memo, the scratch pool and the tree.
	if _, err := h.SubmitColumnarSession("", 0, view); err != nil {
		t.Fatal(err)
	}
	_, misses := reconCounts(h)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := h.SubmitColumnarSession("", 0, view); err != nil {
			t.Fatal(err)
		}
	})
	if _, m := reconCounts(h); m != misses {
		t.Fatalf("steady-state batch missed the memo %d times", m-misses)
	}
	// Per-batch slack for pool churn; a per-trace allocation would cost 64.
	if avg > 2 {
		t.Fatalf("an all-hit 64-trace external-only batch costs %.1f allocs; want <= 2", avg)
	}
}
