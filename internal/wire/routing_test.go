package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/ring"
	"repro/internal/trace"
)

// buildNamedCrashy is buildCrashy with a caller-chosen name, so routed
// tests get a corpus of distinct program IDs spread around the ring.
func buildNamedCrashy(t *testing.T, name string) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(name, 1)
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

func buildRoutedCorpus(t *testing.T, n int) []*prog.Program {
	t.Helper()
	out := make([]*prog.Program, n)
	for i := range out {
		out[i] = buildNamedCrashy(t, fmt.Sprintf("routed-%d", i))
	}
	return out
}

// fleetNode is one sharded hive: an in-process backend plus its server.
type fleetNode struct {
	h    *hive.Hive
	srv  *Server
	addr string
}

// startFleet boots n sharded hives with the whole corpus registered on
// every member (registration is cheap metadata; ingest only ever lands on
// the owner) and one placement map over their listen addresses installed
// everywhere.
func startFleet(t *testing.T, n int, corpus []*prog.Program) ([]*fleetNode, *ring.Map) {
	t.Helper()
	nodes := make([]*fleetNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		h := hive.New("fleet")
		for _, p := range corpus {
			if err := h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		srv := NewServer(h)
		srv.Logf = t.Logf
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &fleetNode{h: h, srv: srv, addr: addr}
		addrs[i] = addr
		t.Cleanup(func() { _ = srv.Close() })
	}
	m := ring.New(addrs, ring.DefaultVNodes, 42)
	for _, nd := range nodes {
		nd.srv.SetPlacement(m, nd.addr)
	}
	return nodes, m
}

func nodeByAddr(t *testing.T, nodes []*fleetNode, addr string) *fleetNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.addr == addr {
			return nd
		}
	}
	t.Fatalf("no fleet node at %s", addr)
	return nil
}

// pickOwnedBy returns a corpus program the map assigns to addr (want
// true) or to any other node (want false). The ring hashes ephemeral
// listen ports, so an unlucky run can land the whole fixed corpus on (or
// off) one member; in that case extra programs are synthesized until one
// hashes where the test needs it, registered fleet-wide like the corpus.
func pickOwnedBy(t *testing.T, nodes []*fleetNode, corpus []*prog.Program, m *ring.Map, addr string, want bool) *prog.Program {
	t.Helper()
	for _, p := range corpus {
		if (m.Owner(p.ID) == addr) == want {
			return p
		}
	}
	for i := 0; i < 1024; i++ {
		p := buildNamedCrashy(t, fmt.Sprintf("routed-extra-%d", i))
		if (m.Owner(p.ID) == addr) != want {
			continue
		}
		for _, nd := range nodes {
			if err := nd.h.RegisterProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	t.Fatalf("no program with owner==%s being %v after 1024 probes", addr, want)
	return nil
}

// TestRoutedSealedExactlyOnce drives a Router over a 3-hive fleet: every
// program's traces land on exactly its ring owner and nowhere else, and a
// verbatim resubmission of the already-acked sealed frames is dup-acked
// without re-ingesting.
func TestRoutedSealedExactlyOnce(t *testing.T) {
	leaktest.Check(t)
	corpus := buildRoutedCorpus(t, 6)
	nodes, m := startFleet(t, 3, corpus)
	r := NewRouter(nodes[0].addr, nodes[1].addr, nodes[2].addr)
	defer r.Close()

	allSealed := make(map[string][]pod.SealedBatch)
	for pi, p := range corpus {
		batches := [][]*trace.Trace{
			{captureWireTrace(t, p, "route-pod", []int64{int64(pi)})},
			{captureWireTrace(t, p, "route-pod", []int64{int64(100 + pi)})},
		}
		sealed := r.SealTraceBatches(p.ID, batches)
		acc, err := r.SubmitSealed(sealed)
		if err != nil {
			t.Fatalf("program %d: %v", pi, err)
		}
		for i, ok := range acc {
			if !ok {
				t.Fatalf("program %d frame %d not accepted", pi, i)
			}
		}
		allSealed[p.ID] = sealed
	}

	spread := make(map[string]bool)
	for _, p := range corpus {
		owner := m.Owner(p.ID)
		spread[owner] = true
		for _, nd := range nodes {
			st, err := nd.h.ProgramStats(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			if nd.addr == owner {
				want = 2
			}
			if st.Ingested != want {
				t.Fatalf("program %s on %s: ingested=%d want %d", p.ID, nd.addr, st.Ingested, want)
			}
		}
	}
	if len(spread) < 2 {
		t.Fatalf("corpus landed entirely on one node; ring or corpus degenerate")
	}

	// Exactly-once across the fleet: resubmitting every sealed frame
	// verbatim dup-acks without moving any counter.
	for _, p := range corpus {
		acc, err := r.SubmitSealed(allSealed[p.ID])
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range acc {
			if !ok {
				t.Fatalf("resubmitted frame %d of %s not dup-acked", i, p.ID)
			}
		}
		st, err := nodeByAddr(t, nodes, m.Owner(p.ID)).h.ProgramStats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != 2 {
			t.Fatalf("resubmission re-ingested: %s has %d traces", p.ID, st.Ingested)
		}
	}
}

// TestRedirectResubmitAfterRehome is the owner-moved path end to end: a
// routing client seals and part-submits against the original owner, the
// owner's programs are exported/imported to survivors under placement v2,
// and the stale client's resubmission is answered with MsgRedirect naming
// the new owner. A router holding the stale map chases the redirect and
// delivers the parked frames verbatim — already-acked frames dup-ack on
// the new owner (the session table traveled with the snapshot), fresh
// frames apply exactly once.
func TestRedirectResubmitAfterRehome(t *testing.T) {
	corpus := buildRoutedCorpus(t, 6)
	nodes, m := startFleet(t, 3, corpus)
	victim := nodes[2]
	moved := pickOwnedBy(t, nodes, corpus, m, victim.addr, true)

	// The router bootstraps now, so it holds placement v1 across the move.
	r := NewRouter(victim.addr)
	defer r.Close()
	if got := r.PlacementVersion(); got != m.Version() {
		t.Fatalf("router placement v%d, want v%d", got, m.Version())
	}

	c := Dial(victim.addr)
	defer c.Close()
	var batches [][]*trace.Trace
	for i := 0; i < 4; i++ {
		batches = append(batches, []*trace.Trace{captureWireTrace(t, moved, "move-pod", []int64{int64(i)})})
	}
	sealed := c.SealTraceBatches(moved.ID, batches)
	// Frame 0 is acked by the original owner before the move.
	if acc, err := c.SubmitSealed(sealed[:1]); err != nil || !acc[0] {
		t.Fatalf("pre-move submit: acc=%v err=%v", acc, err)
	}

	// Re-home every program the victim owns and retire it from the ring.
	m2 := m.Without(victim.addr)
	for _, p := range corpus {
		if m.Owner(p.ID) != victim.addr {
			continue
		}
		snap, err := victim.h.ExportProgram(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeByAddr(t, nodes, m2.Owner(p.ID)).h.ImportProgram(snap); err != nil {
			t.Fatal(err)
		}
		victim.h.DropProgram(p.ID)
	}
	for _, nd := range nodes {
		nd.srv.SetPlacement(m2, nd.addr)
	}
	newOwner := nodeByAddr(t, nodes, m2.Owner(moved.ID))

	// The stale direct client resubmits to the old owner: the answer is a
	// typed redirect naming the new owner at placement v2.
	_, err := c.SubmitSealed(sealed)
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("stale submit error = %v, want RedirectError", err)
	}
	if re.Owner != newOwner.addr || re.ProgramID != moved.ID {
		t.Fatalf("redirect points at %s for %s, want %s for %s", re.Owner, re.ProgramID, newOwner.addr, moved.ID)
	}
	if re.Version != m2.Version() {
		t.Fatalf("redirect placement v%d, want v%d", re.Version, m2.Version())
	}

	// The stale router chases the redirect: all four frames delivered, the
	// pre-move acked frame exactly once.
	acc, err := r.SubmitSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range acc {
		if !ok {
			t.Fatalf("frame %d not delivered after re-homing", i)
		}
	}
	if got := r.PlacementVersion(); got != m2.Version() {
		t.Fatalf("router did not adopt redirect placement: v%d, want v%d", got, m2.Version())
	}
	st, err := newOwner.h.ProgramStats(moved.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != int64(len(sealed)) {
		t.Fatalf("new owner ingested %d, want %d (exactly-once across re-homing)", st.Ingested, len(sealed))
	}
	// Steering survives the move: the new owner answers guidance for the
	// migrated frontier through the router.
	if _, err := r.Guidance(moved.ID, 4); err != nil {
		t.Fatalf("guidance after re-homing: %v", err)
	}
}

// TestMixedGenerationRoutedMatrix points each client generation at the
// WRONG member of a sharded fleet and pins what it gets now that hello is
// mandatory and submissions are never proxied: a pre-hello client's
// submission is refused with an error ack; a client that does not chase
// redirects (a bare Client) gets a typed RedirectError naming the owner; a
// Router follows the redirect to the owner. Nothing is ever applied on the
// wrong member, and reads (fixes, guidance) asked of it are proxied to the
// owner. Run under -race in CI's cluster job.
func TestMixedGenerationRoutedMatrix(t *testing.T) {
	corpus := buildRoutedCorpus(t, 4)
	nodes, m := startFleet(t, 2, corpus)
	wrong := nodes[0]
	p := pickOwnedBy(t, nodes, corpus, m, wrong.addr, false)
	owner := nodeByAddr(t, nodes, m.Owner(p.ID))

	gens := []struct {
		name    string
		applied int64 // traces the owner gains
		submit  func(t *testing.T, batch []*trace.Trace)
	}{
		{"pre-hello", 0, func(t *testing.T, batch []*trace.Trace) {
			enc, err := trace.EncodeBatch(p.ID, batch)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", wrong.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := WriteFrame(conn, MsgSubmitBatchColumnar, append(appendSeqPrefix(nil, "old", 1), enc...)); err != nil {
				t.Fatal(err)
			}
			respType, resp, err := ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkAck(respType, resp, len(batch)); err == nil || !strings.Contains(err.Error(), "before hello") {
				t.Fatalf("pre-hello submit via wrong node answered %v, want a before-hello error ack", err)
			}
		}},
		{"pr7-no-routing", 0, func(t *testing.T, batch []*trace.Trace) {
			c := Dial(wrong.addr)
			defer c.Close()
			acc, err := c.SubmitSealed(c.SealTraceBatches(p.ID, [][]*trace.Trace{batch}))
			var re *RedirectError
			if !errors.As(err, &re) || acc[0] {
				t.Fatalf("bare client via wrong node: acc=%v err=%v, want an unaccepted RedirectError", acc, err)
			}
			if re.Owner != owner.addr {
				t.Fatalf("redirect names %s, want owner %s", re.Owner, owner.addr)
			}
		}},
		{"routed", 1, func(t *testing.T, batch []*trace.Trace) {
			r := NewRouter(wrong.addr)
			defer r.Close()
			acc, err := r.SubmitSealed(r.SealTraceBatches(p.ID, [][]*trace.Trace{batch}))
			if err != nil || !acc[0] {
				t.Fatalf("routed sealed submit: acc=%v err=%v", acc, err)
			}
		}},
	}
	for i, gen := range gens {
		t.Run(gen.name, func(t *testing.T) {
			before, err := owner.h.ProgramStats(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			gen.submit(t, []*trace.Trace{captureWireTrace(t, p, "gen-pod", []int64{int64(i)})})
			after, err := owner.h.ProgramStats(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			if after.Ingested != before.Ingested+gen.applied {
				t.Fatalf("owner ingested %d -> %d, want +%d", before.Ingested, after.Ingested, gen.applied)
			}
			if st, _ := wrong.h.ProgramStats(p.ID); st.Ingested != 0 {
				t.Fatalf("wrong node ingested %d traces", st.Ingested)
			}
		})
	}

	// A pod routing from the wrong member: its crash lands on the owner,
	// which mints the fix; a bare client asking the wrong member for fixes
	// and guidance is answered through the read proxy.
	r := NewRouter(wrong.addr)
	defer r.Close()
	pd, err := pod.New(pod.Config{
		Program: p, ID: "routed-pod", Hive: r,
		Privacy: trace.PrivacyHashed, Salt: "fleet", BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.RunOnce([]int64{105}); err != nil {
		t.Fatal(err)
	}
	if st, _ := owner.h.ProgramStats(p.ID); st.FixCount == 0 {
		t.Fatal("routed crash minted no fix on the owner")
	}
	c := Dial(wrong.addr)
	defer c.Close()
	fixes, _, err := c.FixesSince(p.ID, 0)
	if err != nil || len(fixes) == 0 {
		t.Fatalf("fixes via wrong node: %d fixes, err %v", len(fixes), err)
	}
	if _, err := c.Guidance(p.ID, 4); err != nil {
		t.Fatalf("guidance via wrong node: %v", err)
	}
}

// TestRetryErrorNamesRedirect pins the diagnostic surface: a
// retry-exhausted error must distinguish "owner moved" (a redirect was
// seen: name the program, target, and placement generation) from "owner
// down" (no redirect at the current generation).
func TestRetryErrorNamesRedirect(t *testing.T) {
	corpus := buildRoutedCorpus(t, 4)
	nodes, m := startFleet(t, 2, corpus)
	c := Dial(nodes[0].addr)
	defer c.Close()
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	err := c.retryErrLocked(errors.New("boom"))
	c.mu.Unlock()
	if want := fmt.Sprintf("no redirect seen at placement v%d", m.Version()); !strings.Contains(err.Error(), want) {
		t.Fatalf("owner-down retry error %q lacks %q", err, want)
	}

	// Provoke a redirect: a routing client submitting a foreign program to
	// the wrong node is told where it lives.
	foreign := pickOwnedBy(t, nodes, corpus, m, nodes[0].addr, false)
	sealed := c.SealTraceBatches(foreign.ID, [][]*trace.Trace{{captureWireTrace(t, foreign, "err-pod", []int64{1})}})
	if _, serr := c.SubmitSealed(sealed); serr == nil {
		t.Fatal("misdirected routing submit did not redirect")
	}
	c.mu.Lock()
	err = c.retryErrLocked(errors.New("boom"))
	c.mu.Unlock()
	want := fmt.Sprintf("last redirect: program %s -> %s at placement v%d", foreign.ID, m.Owner(foreign.ID), m.Version())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("owner-moved retry error %q lacks %q", err, want)
	}
}
