package wire

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

// makeTraces captures n real traces of the crashy program (mixed OK and
// crash outcomes) for submission tests.
func makeTraces(t *testing.T, p *prog.Program, n int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		col := trace.NewCollector(p, trace.CaptureFull, 0, uint64(i+1))
		input := []int64{int64(i * 13 % 160)}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		out = append(out, col.Finish(fmt.Sprintf("pod-%d", i%3), uint64(i), res, input, trace.PrivacyHashed, "fleet"))
	}
	return out
}

// TestColumnarMixedClients proves fleet members with different transport
// choices — coalesced mega-frames with forced compression (so the
// compressed frame type is exercised on loopback), plain frames without
// compression, and the defaults — interoperate concurrently on one server
// with every trace ingested exactly once, and that the choice is invisible
// to aggregation: a mixed fleet and a fleet of each single choice leave
// identical hive state. Run under -race in CI.
func TestColumnarMixedClients(t *testing.T) {
	p := buildCrashy(t)
	configure := []func(*Client){
		func(c *Client) { c.ForceCompress = true },
		func(c *Client) { c.DisableCoalesce, c.DisableCompression = true, true },
		func(c *Client) {},
	}
	fleets := []string{"mixed", "compressed", "plain", "default"}
	var stats []hive.Stats
	for fi, fleet := range fleets {
		h := hive.New("fleet")
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(h)
		srv.Logf = t.Logf
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}

		const clients = 6
		const perClient = 40
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := Dial(addr)
				if fi == 0 {
					configure[c%len(configure)](client)
				} else {
					configure[fi-1](client)
				}
				defer client.Close()
				buf := pod.NewBufferedFor(client, p.ID)
				traces := makeTraces(t, p, perClient)
				for _, tr := range traces {
					tr.PodID = fmt.Sprintf("pod-%d", c)
					if err := buf.SubmitTraces([]*trace.Trace{tr}); err != nil {
						errs[c] = err
						return
					}
				}
				errs[c] = buf.Drain()
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("fleet=%s client %d: %v", fleet, c, err)
			}
		}
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != clients*perClient {
			t.Fatalf("fleet=%s: ingested %d, want %d", fleet, st.Ingested, clients*perClient)
		}
		stats = append(stats, st)
		_ = srv.Close()
	}
	// The transport choice must be invisible to aggregation: same ingest
	// counts, same failure aggregation, same tree shape every way.
	for i := range stats {
		stats[i].Failures = nil // Sample pointers differ; counts compared via Tree/FixCount
		if i > 0 && !reflect.DeepEqual(stats[0], stats[i]) {
			t.Fatalf("%s and %s fleets aggregated differently:\n%+v\n%+v",
				fleets[0], fleets[i], stats[0], stats[i])
		}
	}
}

// TestColumnarJournalBytesIdentity is the write-once-bytes acceptance test:
// the bytes a durable hive journals for a columnar batch are byte-identical
// to the wire payload the pod sealed — pod → wire → hive → journal with one
// serialization, no re-encode.
func TestColumnarJournalBytesIdentity(t *testing.T) {
	p := buildCrashy(t)
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(addr)
	defer client.Close()

	batches := [][]*trace.Trace{makeTraces(t, p, 8), makeTraces(t, p, 5)}
	sealed := client.SealTraceBatches(p.ID, batches)
	var wireBatches [][]byte
	for _, sb := range sealed {
		// Strip the (session, seq) tag: the rest is the columnar batch.
		_, _, batchBytes, err := decodeSeqPrefix(sb.Payload)
		if err != nil {
			t.Fatal(err)
		}
		wireBatches = append(wireBatches, batchBytes)
	}
	if _, err := client.SubmitSealed(sealed); err != nil {
		t.Fatal(err)
	}
	_ = store.Close()

	// Read the journal back: the batch ops must carry the wire bytes
	// verbatim.
	reread, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	var journaled [][]byte
	if _, err := reread.Replay(p.ID, func(op *journal.Op) error {
		if op.Kind == journal.OpBatchColumnar {
			journaled = append(journaled, op.Raw)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(wireBatches) {
		t.Fatalf("journal holds %d columnar ops, want %d", len(journaled), len(wireBatches))
	}
	for i := range journaled {
		if !reflect.DeepEqual(journaled[i], wireBatches[i]) {
			t.Fatalf("journaled batch %d differs from wire payload", i)
		}
	}
}

// TestColumnarRecoverEquivalence kills a hive that ingested columnar
// batches and recovers it from the journal: stats, failure aggregation, and
// minted fixes must survive byte-journaled replay exactly.
func TestColumnarRecoverEquivalence(t *testing.T) {
	p := buildCrashy(t)
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(store); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	buf := pod.NewBufferedFor(client, p.ID)
	if err := buf.SubmitTraces(makeTraces(t, p, 64)); err != nil {
		t.Fatal(err)
	}
	if err := buf.Drain(); err != nil {
		t.Fatal(err)
	}
	before, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	_ = srv.Close()
	_ = store.Close()

	store2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	h2 := hive.New("fleet")
	if err := h2.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := h2.Recover(store2); err != nil {
		t.Fatal(err)
	}
	after, err := h2.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	before.Failures, after.Failures = nil, nil
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recovered state differs:\nbefore %+v\nafter  %+v", before, after)
	}
}
