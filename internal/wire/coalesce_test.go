package wire

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
)

// coalesceFixture serves a fresh hive with the crashy program registered.
func coalesceFixture(t *testing.T, p *prog.Program) (*hive.Hive, *Server, string) {
	t.Helper()
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
	t.Cleanup(func() { _ = srv.Close() })
	return h, srv, addr
}

// chunkTraces cuts a flat trace slice into batches of per.
func chunkTraces(traces []*trace.Trace, per int) [][]*trace.Trace {
	var out [][]*trace.Trace
	for len(traces) > 0 {
		n := per
		if n > len(traces) {
			n = len(traces)
		}
		out = append(out, traces[:n])
		traces = traces[n:]
	}
	return out
}

// TestCoalescedRoundTrip drives the full coalesced path end to end — with
// and without compression — and then re-submits the identical sealed frames:
// the hive must ingest every trace exactly once both times, because group
// acks are per inner frame and the (session, seq) dedup identity is sealed
// into the payload, not the transport framing.
func TestCoalescedRoundTrip(t *testing.T) {
	p := buildCrashy(t)
	for _, compress := range []bool{false, true} {
		h, _, addr := coalesceFixture(t, p)
		client := Dial(addr)
		client.ForceCompress = compress
		// 20-trace batches encode comfortably above the compression floor.
		batches := chunkTraces(makeTraces(t, p, 200), 20)
		sealed := client.SealTraceBatches(p.ID, batches)
		compressed := 0
		for _, sb := range sealed {
			if sb.Compressed {
				compressed++
			}
		}
		if compress && compressed == 0 {
			t.Fatalf("ForceCompress sealed no compressed frames out of %d", len(sealed))
		}
		if !compress && compressed != 0 {
			t.Fatalf("loopback client sealed %d compressed frames without ForceCompress", compressed)
		}
		for round := 0; round < 2; round++ {
			accepted, err := client.SubmitSealed(sealed)
			if err != nil {
				t.Fatalf("compress=%v round %d: %v", compress, round, err)
			}
			for i, ok := range accepted {
				if !ok {
					t.Fatalf("compress=%v round %d: frame %d not accepted", compress, round, i)
				}
			}
			st, err := h.ProgramStats(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Ingested != 200 {
				t.Fatalf("compress=%v round %d: ingested %d, want exactly 200", compress, round, st.Ingested)
			}
		}
		_ = client.Close()
	}
}

// rawHello performs one hello exchange on a raw connection and returns the
// server's ack.
func rawHello(t *testing.T, addr string, req HelloPayload) HelloReplyPayload {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, MsgHello, payload); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if respType != MsgHelloAck {
		t.Fatalf("hello answered with frame type %d", respType)
	}
	var ack HelloReplyPayload
	if err := json.Unmarshal(resp, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestNegotiatedMaxFrame pins the frame-size grant arithmetic: the server
// grants min(requested, server cap), never below the universal
// MaxFrameSize, and an unsharded server advertises no placement.
func TestNegotiatedMaxFrame(t *testing.T) {
	p := buildCrashy(t)
	ask := HelloPayload{MaxFrame: MaxCoalescedFrameSize}

	_, _, addr := coalesceFixture(t, p)
	ack := rawHello(t, addr, ask)
	if ack.MaxFrame != MaxCoalescedFrameSize {
		t.Fatalf("default server granted max frame %d, want %d", ack.MaxFrame, MaxCoalescedFrameSize)
	}
	if ack.Placement != nil {
		t.Fatalf("unsharded server advertised placement %+v", ack.Placement)
	}
	if ack := rawHello(t, addr, HelloPayload{}); ack.MaxFrame != 0 {
		t.Fatalf("server raised the limit to %d unasked", ack.MaxFrame)
	}

	_, srv, addr := coalesceFixture(t, p)
	srv.MaxFrame = 20 << 20
	if ack := rawHello(t, addr, ask); ack.MaxFrame != 20<<20 {
		t.Fatalf("capped server granted max frame %d, want %d", ack.MaxFrame, 20<<20)
	}

	// A cap below the universal limit clamps to it — which means no raise,
	// so the grant is omitted entirely.
	_, srv, addr = coalesceFixture(t, p)
	srv.MaxFrame = 1 << 20
	if ack := rawHello(t, addr, ask); ack.MaxFrame != 0 {
		t.Fatalf("under-floor cap still granted max frame %d", ack.MaxFrame)
	}
}

// TestCompressedJournalBytesIdentity extends the write-once-bytes guarantee
// across the compressed transport: what a durable hive journals for a
// compressed submission is byte-identical to the canonical decompressed
// payload the client sealed — compression is transport-only and invisible
// to the journal.
func TestCompressedJournalBytesIdentity(t *testing.T) {
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
	client.ForceCompress = true

	batches := [][]*trace.Trace{makeTraces(t, p, 64), makeTraces(t, p, 40)}
	sealed := client.SealTraceBatches(p.ID, batches)
	var canonical [][]byte
	for i, sb := range sealed {
		if !sb.Compressed {
			t.Fatalf("frame %d not compressed under ForceCompress", i)
		}
		_, _, comp, err := decodeSeqPrefix(sb.Payload)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := trace.DecompressSlab(comp, MaxFrameSize)
		if err != nil {
			t.Fatalf("frame %d: sealed payload does not inflate: %v", i, err)
		}
		canonical = append(canonical, append([]byte(nil), *raw...))
		trace.ReleaseSlab(raw)
	}
	if _, err := client.SubmitSealed(sealed); err != nil {
		t.Fatal(err)
	}
	_ = store.Close()

	reread, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	var journaled [][]byte
	if _, err := reread.Replay(p.ID, func(op *journal.Op) error {
		if op.Kind == journal.OpBatchColumnar {
			journaled = append(journaled, append([]byte(nil), op.Raw...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(canonical) {
		t.Fatalf("journal holds %d columnar ops, want %d", len(journaled), len(canonical))
	}
	for i := range journaled {
		if string(journaled[i]) != string(canonical[i]) {
			t.Fatalf("journaled batch %d differs from canonical decompressed payload", i)
		}
	}
}

// TestCompressedBombRejectedOverWire sends a hostile compressed frame whose
// length prefix claims a gigabyte: the server must answer with an error ack
// — no inflation, no crash — and keep serving the connection.
func TestCompressedBombRejectedOverWire(t *testing.T) {
	p := buildCrashy(t)
	_, _, addr := coalesceFixture(t, p)
	conn, err := dialHello(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bomb := appendSeqPrefix(nil, "hostile", 1)
	bomb = binary.AppendUvarint(bomb, 1<<30)
	bomb = append(bomb, []byte("this is not a deflate stream")...)
	if err := WriteFrame(conn, MsgSubmitBatchCompressed, bomb); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ackErr := checkAck(respType, resp, 0); ackErr == nil {
		t.Fatal("gigabyte bomb claim was acknowledged cleanly")
	}

	// The connection survives: a well-formed submission still lands.
	enc, err := trace.EncodeBatch(p.ID, makeTraces(t, p, 3))
	if err != nil {
		t.Fatal(err)
	}
	good := appendSeqPrefix(nil, "hostile", 2)
	good = trace.CompressSlab(good, enc)
	if err := WriteFrame(conn, MsgSubmitBatchCompressed, good); err != nil {
		t.Fatal(err)
	}
	respType, resp, err = ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ackErr := checkAck(respType, resp, 3); ackErr != nil {
		t.Fatalf("valid frame after rejected bomb: %v", ackErr)
	}
}

// TestCoalescedMidGroupRejection corrupts one frame in the middle of a
// coalesced group: the submit surfaces the rejection, every other frame —
// before and after the bad one, in the same mega-frame — is marked
// accepted, and the hive ingests exactly those.
func TestCoalescedMidGroupRejection(t *testing.T) {
	p, _, err := proggen.Generate(proggen.Spec{Seed: 7003, Depth: 4, NumInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, _, addr := coalesceFixture(t, p)
	client := Dial(addr)
	defer client.Close()

	const perBatch = 5
	sealed := client.SealTraceBatches(p.ID, makeBatches(t, p, 10, perBatch))
	const bad = 4
	sealed[bad].Payload = []byte("not a sequenced batch")

	accepted, err := client.SubmitSealed(sealed)
	if err == nil {
		t.Fatal("submit with a corrupt frame succeeded")
	}
	if strings.Contains(err.Error(), "unreachable after retry") {
		t.Fatalf("inner rejection misreported as a transport failure: %v", err)
	}
	for i, ok := range accepted {
		if want := i != bad; ok != want {
			t.Fatalf("frame %d accepted = %v, want %v", i, ok, want)
		}
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(9 * perBatch); st.Ingested != want {
		t.Fatalf("hive ingested %d traces, want exactly %d", st.Ingested, want)
	}
}
