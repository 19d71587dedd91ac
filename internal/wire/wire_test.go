package wire

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgError, []byte(`{"error":"x"}`)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || string(payload) != `{"error":"x"}` {
		t.Fatalf("got %v %q", typ, payload)
	}
}

// TestMsgTypeNumbering pins the wire numbering: message types are wire
// format, so a renumbering would silently break every deployed peer.
func TestMsgTypeNumbering(t *testing.T) {
	for _, c := range []struct {
		name string
		got  MsgType
		want uint8
	}{
		{"MsgGetFixes", MsgGetFixes, 3},
		{"MsgFixes", MsgFixes, 4},
		{"MsgGetGuidance", MsgGetGuidance, 5},
		{"MsgGuidance", MsgGuidance, 6},
		{"MsgError", MsgError, 7},
		{"MsgHello", MsgHello, 10},
		{"MsgHelloAck", MsgHelloAck, 11},
		{"MsgAckBin", MsgAckBin, 12},
		{"MsgSubmitBatchColumnar", MsgSubmitBatchColumnar, 13},
		{"MsgCoalesced", MsgCoalesced, 14},
		{"MsgSubmitBatchCompressed", MsgSubmitBatchCompressed, 15},
		{"MsgRedirect", MsgRedirect, 16},
		{"MsgBusy", MsgBusy, 17},
	} {
		if uint8(c.got) != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestRetiredMsgTypesRejected: the retired submission frames (1, 8, 9)
// and the retired JSON ack (2) are unknown message types now, refused
// with MsgError and never applied — even after hello.
func TestRetiredMsgTypesRejected(t *testing.T) {
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	defer client.Close()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	for _, mt := range []MsgType{1, 2, 8, 9} {
		respType, resp, err := client.call(mt, []byte{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if respType != MsgError || !strings.Contains(string(resp), "unknown message type") {
			t.Fatalf("type %d answered %d %q, want MsgError unknown message type", mt, respType, resp)
		}
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 0 {
		t.Fatalf("retired frames applied %d traces", st.Ingested)
	}
}

// TestSubmissionBeforeHelloRefused: a connection that has not said hello
// gets an error ack for a submission, and the batch is not applied; the
// same frame after hello is.
func TestSubmissionBeforeHelloRefused(t *testing.T) {
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	tr := captureWireTrace(t, p, "pod", []int64{5})
	batch, err := trace.EncodeBatch(p.ID, []*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(appendSeqPrefix(nil, "raw-session", 1), batch...)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(mt MsgType, body []byte) (MsgType, []byte) {
		t.Helper()
		if err := WriteFrame(conn, mt, body); err != nil {
			t.Fatal(err)
		}
		respType, resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return respType, resp
	}
	respType, resp := exchange(MsgSubmitBatchColumnar, payload)
	if err := checkAck(respType, resp, 1); err == nil || !strings.Contains(err.Error(), "before hello") {
		t.Fatalf("pre-hello submission answered %v, want an error ack", err)
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 0 {
		t.Fatalf("pre-hello submission applied %d traces", st.Ingested)
	}
	if respType, _ := exchange(MsgHello, []byte(`{}`)); respType != MsgHelloAck {
		t.Fatalf("hello answered %d", respType)
	}
	respType, resp = exchange(MsgSubmitBatchColumnar, payload)
	if err := checkAck(respType, resp, 1); err != nil {
		t.Fatalf("post-hello submission: %v", err)
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 1 {
		t.Fatalf("post-hello submission ingested %d traces, want 1", st.Ingested)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestTraceBatchRoundTrip: a submission payload is the (session, seq) tag
// followed by the batch bytes, and the binary ack carries count, dup flag
// and error.
func TestTraceBatchRoundTrip(t *testing.T) {
	payload := append(appendSeqPrefix(nil, "sess", 42), "batch"...)
	session, seq, rest, err := decodeSeqPrefix(payload)
	if err != nil {
		t.Fatal(err)
	}
	if session != "sess" || seq != 42 || string(rest) != "batch" {
		t.Fatalf("got %q %d %q", session, seq, rest)
	}
	accepted, dup, msg, err := decodeAckBin(encodeAckBin(7, true, "boom"))
	if err != nil || accepted != 7 || !dup || msg != "boom" {
		t.Fatalf("ack round trip = %d %v %q %v", accepted, dup, msg, err)
	}
}

func TestTraceBatchRejectsGarbage(t *testing.T) {
	if _, _, _, err := decodeSeqPrefix([]byte{0xFF}); err == nil {
		t.Error("truncated session varint accepted")
	}
	if _, _, _, err := decodeSeqPrefix([]byte{200, 1, 2}); err == nil {
		t.Error("implausible session length accepted")
	}
	if _, _, _, err := decodeSeqPrefix([]byte{1, 'a'}); err == nil {
		t.Error("missing sequence number accepted")
	}
	if _, _, _, err := decodeAckBin([]byte{0xFF}); err == nil {
		t.Error("truncated ack accepted")
	}
}

// buildCrashy crashes for input in [100,110).
func buildCrashy(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("crashy-wire", 1)
	hi, end := b.NewLabel(), b.NewLabel()
	b.Input(0, 0)
	b.BrImm(0, prog.CmpGE, 100, hi)
	b.Jmp(end)
	b.Bind(hi)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpLT, 110, inner)
	b.Jmp(end)
	b.Bind(inner)
	b.Const(1, 0)
	b.Div(2, 1, 1)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func startServer(t *testing.T) (*hive.Hive, string, func()) {
	t.Helper()
	h := hive.New("fleet")
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return h, addr, func() { _ = srv.Close() }
}

func TestEndToEndOverTCP(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	client := Dial(addr)
	defer client.Close()

	pd, err := pod.New(pod.Config{
		Program: p, ID: "tcp-pod", Hive: client,
		Privacy: trace.PrivacyHashed, Salt: "fleet", BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Crash over the network; fix comes back over the network.
	if _, err := pd.RunOnce([]int64{105}); err != nil {
		t.Fatal(err)
	}
	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.FixCount != 1 {
		t.Fatalf("hive stats = %+v", st)
	}
	if err := pd.SyncFixes(); err != nil {
		t.Fatal(err)
	}
	res, err := pd.RunOnce([]int64{105})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != prog.OutcomeOK {
		t.Fatalf("post-fix outcome over TCP = %v", res.Outcome)
	}

	// Guidance over the network.
	if _, err := pd.PullGuidance(4); err != nil {
		t.Fatal(err)
	}
}

func TestServerErrorsSurfaceAsClientErrors(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	client := Dial(addr)
	defer client.Close()

	// Unregistered program.
	err := client.SubmitTraces([]*trace.Trace{{ProgramID: "ghost"}})
	if err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Fatalf("err = %v, want unknown-program", err)
	}
	if _, _, err := client.FixesSince("ghost", 0); err == nil {
		t.Fatal("FixesSince for ghost program should error")
	}
	if _, err := client.Guidance("ghost", 1); err == nil {
		t.Fatal("Guidance for ghost program should error")
	}
}

func TestManyConcurrentClients(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	defer stop()
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}

	const pods = 16
	const runs = 20
	var wg sync.WaitGroup
	errs := make(chan error, pods)
	for i := 0; i < pods; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := Dial(addr)
			defer client.Close()
			pd, err := pod.New(pod.Config{
				Program: p, ID: "conc-" + string(rune('a'+i)), Hive: client,
				Salt: "fleet", Seed: uint64(i), BatchSize: 4,
			})
			if err != nil {
				errs <- err
				return
			}
			for r := int64(0); r < runs; r++ {
				if _, err := pd.RunOnce([]int64{r * 7 % 256}); err != nil {
					errs <- err
					return
				}
			}
			errs <- pd.Flush()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st, _ := h.ProgramStats(p.ID)
	if st.Ingested != pods*runs {
		t.Fatalf("ingested = %d, want %d", st.Ingested, pods*runs)
	}
}

func TestClientReconnects(t *testing.T) {
	p := buildCrashy(t)
	h, addr, stop := startServer(t)
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	defer client.Close()

	if err := client.SubmitTraces([]*trace.Trace{captureWireTrace(t, p, "pod", []int64{1})}); err != nil {
		t.Fatal(err)
	}
	// Kill the server; a new one on the same address picks up.
	stop()
	srv2 := NewServer(h)
	srv2.Logf = t.Logf
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("address reuse unavailable: %v", err)
	}
	defer srv2.Close()

	if err := client.SubmitTraces([]*trace.Trace{captureWireTrace(t, p, "pod", []int64{2})}); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != 2 {
		t.Fatalf("ingested = %d, want 2", st.Ingested)
	}
	if n := client.HelloCount(); n != 2 {
		t.Fatalf("hello exchanges = %d, want one per connection (2)", n)
	}
}

func TestConcurrentClientsAcrossPrograms(t *testing.T) {
	// Multi-client ingest across several registered programs at once: each
	// program is its own hive shard, so concurrent connections reporting
	// about different programs must neither contend incorrectly nor bleed
	// state — and the crash signature each program's fleet hits must mint
	// exactly one fix (single-flight over the wire).
	h, addr, stop := startServer(t)
	defer stop()

	const programs = 4
	progs := make([]*prog.Program, programs)
	for i := range progs {
		b := prog.NewBuilder("wire-multi-"+string(rune('a'+i)), 1)
		hi, end := b.NewLabel(), b.NewLabel()
		b.Input(0, 0)
		b.BrImm(0, prog.CmpGE, 100, hi)
		b.Jmp(end)
		b.Bind(hi)
		inner := b.NewLabel()
		b.BrImm(0, prog.CmpLT, 110, inner)
		b.Jmp(end)
		b.Bind(inner)
		b.Const(1, 0)
		b.Div(2, 1, 1)
		b.Bind(end)
		b.Halt()
		progs[i] = b.MustBuild()
		if err := h.RegisterProgram(progs[i]); err != nil {
			t.Fatal(err)
		}
	}

	const clientsPerProgram = 3
	const runs = 30
	var wg sync.WaitGroup
	errs := make(chan error, programs*clientsPerProgram)
	for pi := 0; pi < programs; pi++ {
		for c := 0; c < clientsPerProgram; c++ {
			wg.Add(1)
			go func(pi, c int) {
				defer wg.Done()
				client := Dial(addr)
				defer client.Close()
				pd, err := pod.New(pod.Config{
					Program: progs[pi],
					ID:      fmt.Sprintf("mp-%d-%d", pi, c),
					Hive:    client, Salt: "fleet",
					Seed: uint64(pi*10 + c), BatchSize: 4,
				})
				if err != nil {
					errs <- err
					return
				}
				for r := 0; r < runs; r++ {
					// Sweep through the crash zone once per client.
					if _, err := pd.RunOnce([]int64{int64((r * 7) % 128)}); err != nil {
						errs <- err
						return
					}
				}
				errs <- pd.Flush()
			}(pi, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for pi := 0; pi < programs; pi++ {
		st, err := h.ProgramStats(progs[pi].ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(clientsPerProgram * runs); st.Ingested != want {
			t.Errorf("program %d ingested = %d, want %d", pi, st.Ingested, want)
		}
		if st.FixCount != 1 || st.Epoch != 1 {
			t.Errorf("program %d fixes=%d epoch=%d, want exactly 1/1", pi, st.FixCount, st.Epoch)
		}
	}
}
