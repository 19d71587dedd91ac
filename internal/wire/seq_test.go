package wire

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/hive"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
)

// twoProgramServer serves a real in-memory hive holding two programs.
func twoProgramServer(t *testing.T) (*hive.Hive, string, [2]*prog.Program) {
	t.Helper()
	var progs [2]*prog.Program
	h := hive.New("fleet")
	for i, seed := range []uint64{7011, 7012} {
		p, _, err := proggen.Generate(proggen.Spec{Seed: seed, Depth: 4, NumInputs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RegisterProgram(p); err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	if progs[0].ID == progs[1].ID {
		t.Fatalf("both seeds generated program %s", progs[0].ID)
	}
	srv := NewServer(h)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return h, addr, progs
}

// sealInterleaved seals n one-batch frames per program on one client,
// alternating between the two programs.
func sealInterleaved(t *testing.T, c *Client, progs [2]*prog.Program, n, perBatch int) []pod.SealedBatch {
	t.Helper()
	batches := [2][][]*trace.Trace{makeBatches(t, progs[0], n, perBatch), makeBatches(t, progs[1], n, perBatch)}
	var sealed []pod.SealedBatch
	for i := 0; i < n; i++ {
		for j, p := range progs {
			sealed = append(sealed, c.SealTraceBatches(p.ID, batches[j][i:i+1])...)
		}
	}
	return sealed
}

// checkWindows asserts every program's dedup window for session is the
// contiguous run 1..n with nothing applied out of order.
func checkWindows(t *testing.T, h *hive.Hive, progs [2]*prog.Program, session string, n int) {
	t.Helper()
	for _, p := range progs {
		snap, err := h.ExportProgram(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Sessions[session]; got != uint64(n) {
			t.Fatalf("program %s: window base %d, want %d", p.ID, got, n)
		}
		if len(snap.SessionsAhead) != 0 {
			t.Fatalf("program %s: out-of-order marks %v, want none", p.ID, snap.SessionsAhead)
		}
	}
}

// TestSealSeqsPerProgram seals interleaved batches for two programs on one
// client and checks each program's frames carry the seqs 1..n in order, so
// the hive's per-program windows compact to their bases instead of holding
// a mark for every frame of the other program's gaps.
func TestSealSeqsPerProgram(t *testing.T) {
	const n = 6
	h, addr, progs := twoProgramServer(t)
	client := Dial(addr)
	defer client.Close()
	sealed := sealInterleaved(t, client, progs, n, 3)

	next := make(map[string]uint64)
	var session string
	for i, s := range sealed {
		sess, seq, _, err := decodeSeqPrefix(s.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 0 {
			session = sess
		} else if sess != session {
			t.Fatalf("frame %d: session %q, want %q", i, sess, session)
		}
		next[s.ProgramID]++
		if seq != next[s.ProgramID] {
			t.Fatalf("frame %d (program %s): seq %d, want %d", i, s.ProgramID, seq, next[s.ProgramID])
		}
	}

	accepted, err := client.SubmitSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("frame %d not accepted", i)
		}
	}
	checkWindows(t, h, progs, session, n)
}

// TestPerProgramSeqsConcurrentResubmit resubmits one session's sealed
// frames for two programs — the same seqs in both — from several
// connections at once. Each frame must be applied exactly once in its own
// program: the same (session, seq) about the other program is a different
// frame, and concurrent copies of one frame are dup-acked. Run under -race.
func TestPerProgramSeqsConcurrentResubmit(t *testing.T) {
	const (
		n        = 8
		perBatch = 4
		senders  = 4
	)
	h, addr, progs := twoProgramServer(t)
	sealer := Dial(addr)
	defer sealer.Close()
	sealed := sealInterleaved(t, sealer, progs, n, perBatch)
	session, _, _, err := decodeSeqPrefix(sealed[0].Payload)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		// Each sender starts at a different frame so copies of one frame
		// meet at the hive from different connections.
		order := append(append([]pod.SealedBatch(nil), sealed[g*len(sealed)/senders:]...), sealed[:g*len(sealed)/senders]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := Dial(addr)
			defer c.Close()
			accepted, err := c.SubmitSealed(order)
			if err == nil {
				for _, ok := range accepted {
					if !ok {
						err = errUnaccepted
					}
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range progs {
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != n*perBatch {
			t.Fatalf("program %s ingested %d traces, want exactly %d", p.ID, st.Ingested, n*perBatch)
		}
	}
	checkWindows(t, h, progs, session, n)
}

var errUnaccepted = errors.New("sealed frame not accepted")
