package pod

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/trace"
)

// recordingClient captures SubmitTraces batches and can be told to fail.
type recordingClient struct {
	batches [][]*trace.Trace
	fail    bool
}

func (r *recordingClient) SubmitTraces(traces []*trace.Trace) error {
	if r.fail {
		return errors.New("backend down")
	}
	r.batches = append(r.batches, traces)
	return nil
}
func (r *recordingClient) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 7, nil }
func (r *recordingClient) Guidance(string, int) ([]guidance.TestCase, error) {
	return []guidance.TestCase{{ProgramID: "x"}}, nil
}

func TestBufferedClientDefersAndDrainsInOrder(t *testing.T) {
	backend := &recordingClient{}
	bc := NewBuffered(backend)

	t1 := &trace.Trace{ProgramID: "a", Seq: 1}
	t2 := &trace.Trace{ProgramID: "a", Seq: 2}
	t3 := &trace.Trace{ProgramID: "b", Seq: 3}
	if err := bc.SubmitTraces([]*trace.Trace{t1, t2}); err != nil {
		t.Fatal(err)
	}
	if err := bc.SubmitTraces([]*trace.Trace{t3}); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 0 {
		t.Fatalf("backend saw %d batches before drain", len(backend.batches))
	}
	if bc.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", bc.Pending())
	}

	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 1 || len(backend.batches[0]) != 3 {
		t.Fatalf("drain batches = %+v", backend.batches)
	}
	for i, want := range []uint64{1, 2, 3} {
		if backend.batches[0][i].Seq != want {
			t.Errorf("drain order[%d] = %d, want %d", i, backend.batches[0][i].Seq, want)
		}
	}
	if bc.Pending() != 0 {
		t.Errorf("pending after drain = %d", bc.Pending())
	}
	// Empty drain is a no-op.
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 1 {
		t.Errorf("empty drain reached the backend")
	}
}

func TestBufferedClientRequeuesOnBackendFailure(t *testing.T) {
	backend := &recordingClient{fail: true}
	bc := NewBuffered(backend)
	if err := bc.SubmitTraces([]*trace.Trace{{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("drain against a down backend must error")
	}
	if bc.Pending() != 1 {
		t.Fatalf("pending after failed drain = %d, want requeued 1", bc.Pending())
	}
	backend.fail = false
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.batches) != 1 || backend.batches[0][0].Seq != 1 {
		t.Fatalf("recovered drain = %+v", backend.batches)
	}
}

func TestBufferedClientPassesThrough(t *testing.T) {
	backend := &recordingClient{}
	bc := NewBuffered(backend)
	if _, v, err := bc.FixesSince("a", 0); err != nil || v != 7 {
		t.Errorf("FixesSince = %d, %v", v, err)
	}
	cases, err := bc.Guidance("a", 1)
	if err != nil || len(cases) != 1 {
		t.Errorf("Guidance = %+v, %v", cases, err)
	}
}

// columnarClient extends recordingClient with zero-copy columnar
// submission; failAt, when positive, fails that call (1-based) once.
type columnarClient struct {
	recordingClient
	calls  int
	failAt int
	chunks []int    // batch size per accepted call
	seqs   []uint64 // trace seqs accepted, in order
}

func (c *columnarClient) SubmitColumnarSession(session string, seq uint64, b *trace.BatchView) (bool, error) {
	c.calls++
	if c.calls == c.failAt {
		return false, errors.New("backend died mid-drain")
	}
	c.chunks = append(c.chunks, b.Len())
	for i := 0; i < b.Len(); i++ {
		c.seqs = append(c.seqs, b.Seq(i))
	}
	return false, nil
}

func TestBufferedForStreamsChunks(t *testing.T) {
	backend := &columnarClient{}
	bc := NewBufferedFor(backend, "prog-a")
	n := streamChunk*2 + 5
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.chunks) != 3 || backend.chunks[0] != streamChunk || backend.chunks[2] != 5 {
		t.Fatalf("chunking = %v, want [%d %d 5]", backend.chunks, streamChunk, streamChunk)
	}
	// Order across chunks is preserved.
	for i, seq := range backend.seqs {
		if seq != uint64(i) {
			t.Fatalf("order broken at seq %d (got %d)", i, seq)
		}
	}
	// An unbound buffer must not take the columnar path.
	plain := NewBuffered(backend)
	if err := plain.SubmitTraces([]*trace.Trace{{Seq: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := plain.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.chunks) != 3 || len(backend.batches) != 1 {
		t.Fatal("unbound buffer took the columnar path")
	}
}

// TestBufferedForRequeuesOnlyUnackedTail pins the partial-failure contract:
// after the backend fails mid-drain, only the unaccepted tail is re-queued,
// so the retry delivers every trace exactly once.
func TestBufferedForRequeuesOnlyUnackedTail(t *testing.T) {
	backend := &columnarClient{failAt: 2}
	bc := NewBufferedFor(backend, "prog-a")
	n := streamChunk + 10
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("drain over a dying backend must error")
	}
	if got := bc.Pending(); got != 10 {
		t.Fatalf("pending after partial drain = %d, want the 10 unaccepted", got)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(backend.seqs) != n {
		t.Fatalf("delivered %d traces, want %d", len(backend.seqs), n)
	}
	for i, seq := range backend.seqs {
		if seq != uint64(i) {
			t.Fatalf("trace %d delivered as seq %d: lost or duplicated", i, seq)
		}
	}
}

// sealingBackend implements SealedStreamer: it seals with monotonically
// increasing tags and records every payload submitted, failing the first
// submit call outright.
type sealingBackend struct {
	recordingClient
	nextSeq   uint64
	submits   int
	delivered []string // payloads acknowledged, in order
	seenTags  map[string]int
}

func (s *sealingBackend) SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch {
	out := make([]SealedBatch, len(batches))
	for i, b := range batches {
		s.nextSeq++
		out[i] = SealedBatch{
			ProgramID: programID,
			Count:     len(b),
			Payload:   []byte(fmt.Sprintf("frame-seq-%d(n=%d)", s.nextSeq, len(b))),
		}
	}
	return out
}

func (s *sealingBackend) SubmitSealed(sealed []SealedBatch) ([]bool, error) {
	s.submits++
	accepted := make([]bool, len(sealed))
	if s.seenTags == nil {
		s.seenTags = make(map[string]int)
	}
	for i, sb := range sealed {
		s.seenTags[string(sb.Payload)]++
		// First submit: ack only the first frame, then die.
		if s.submits == 1 && i > 0 {
			return accepted, errors.New("link died")
		}
		accepted[i] = true
		s.delivered = append(s.delivered, string(sb.Payload))
	}
	if s.submits == 1 && len(sealed) == 1 {
		return accepted, nil
	}
	return accepted, nil
}

// TestBufferedForSealedTagsSurviveDrains pins the cross-drain contract at
// the unit level: frames sealed for a failed drain are re-submitted on the
// next drain with their original payloads (tags included) — never re-sealed
// with fresh sequence numbers.
func TestBufferedForSealedTagsSurviveDrains(t *testing.T) {
	backend := &sealingBackend{}
	bc := NewBufferedFor(backend, "prog-a")
	n := 2*streamChunk + 10 // three frames
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("first drain over a dying backend must error")
	}
	if got, want := bc.Pending(), streamChunk+10; got != want {
		t.Fatalf("pending after failed drain = %d, want %d sealed-but-unacked traces", got, want)
	}
	if backend.nextSeq != 3 {
		t.Fatalf("sealed %d frames, want 3", backend.nextSeq)
	}
	// Second drain: the parked frames go out again, byte-identical, and no
	// new sealing happens (nothing new was queued).
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if backend.nextSeq != 3 {
		t.Fatalf("failed drain's frames were re-sealed: %d tags minted", backend.nextSeq)
	}
	if bc.Pending() != 0 {
		t.Fatalf("pending after successful drain = %d", bc.Pending())
	}
	if len(backend.delivered) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(backend.delivered))
	}
	// Each tag was presented at least once and frame 2 exactly twice (once
	// on the dead link, once on the retry) — with the SAME payload.
	if backend.seenTags["frame-seq-1(n=256)"] != 1 {
		t.Fatalf("frame 1 presented %d times", backend.seenTags["frame-seq-1(n=256)"])
	}
	if backend.seenTags["frame-seq-2(n=256)"] != 2 {
		t.Fatalf("frame 2 presented %d times, want 2 (original + cross-drain resend)", backend.seenTags["frame-seq-2(n=256)"])
	}
	// New traces queued after a failure drain behind the parked frames.
	if err := bc.SubmitTraces([]*trace.Trace{{ProgramID: "prog-a", Seq: 9999}}); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if backend.nextSeq != 4 {
		t.Fatalf("new queue after healed drain sealed %d frames total, want 4", backend.nextSeq)
	}
}

// rejectingBackend rejects the middle frame of the first submit (acking
// frames around it) — the server-rejection failure mode, where a frame in
// the middle of a stream was refused while later frames were applied.
type rejectingBackend struct {
	recordingClient
	nextSeq   uint64
	submits   int
	presented []string // payloads presented across all submits, in order
}

func (s *rejectingBackend) SealTraceBatches(programID string, batches [][]*trace.Trace) []SealedBatch {
	out := make([]SealedBatch, len(batches))
	for i, b := range batches {
		s.nextSeq++
		out[i] = SealedBatch{ProgramID: programID, Count: len(b),
			Payload: []byte(fmt.Sprintf("seq-%d", s.nextSeq))}
	}
	return out
}

func (s *rejectingBackend) SubmitSealed(sealed []SealedBatch) ([]bool, error) {
	s.submits++
	accepted := make([]bool, len(sealed))
	for i, sb := range sealed {
		s.presented = append(s.presented, string(sb.Payload))
		accepted[i] = true
	}
	if s.submits == 1 && len(sealed) >= 2 {
		accepted[1] = false // server rejected frame 1; later frames ingested
		return accepted, errors.New("server rejected a batch")
	}
	return accepted, nil
}

// TestBufferedForReattemptsRejectedFrameSameTag pins the rejection path: a
// frame the server refused mid-stream is parked and re-presented under the
// SAME tag on the next drain — the backend's exact-set dedup window means
// an unapplied seq is simply applied on the retry, no re-sealing needed,
// while later frames that were applied stay dup-suppressed.
func TestBufferedForReattemptsRejectedFrameSameTag(t *testing.T) {
	backend := &rejectingBackend{}
	bc := NewBufferedFor(backend, "prog-a")
	n := 2*streamChunk + 10 // three frames
	queued := make([]*trace.Trace, n)
	for i := range queued {
		queued[i] = &trace.Trace{ProgramID: "prog-a", Seq: uint64(i)}
	}
	if err := bc.SubmitTraces(queued); err != nil {
		t.Fatal(err)
	}
	if err := bc.Drain(); err == nil {
		t.Fatal("drain over a rejecting backend must error")
	}
	// Frame 1 (256 traces) was rejected: parked under its original tag.
	if got := bc.Pending(); got != streamChunk {
		t.Fatalf("pending after rejection = %d, want %d parked traces", got, streamChunk)
	}
	if err := bc.Drain(); err != nil {
		t.Fatal(err)
	}
	if backend.nextSeq != 3 {
		t.Fatalf("rejected frame was re-sealed: %d tags minted, want 3", backend.nextSeq)
	}
	want := []string{"seq-1", "seq-2", "seq-3", "seq-2"}
	if fmt.Sprint(backend.presented) != fmt.Sprint(want) {
		t.Fatalf("presented = %v, want %v (rejected frame retried with original tag)", backend.presented, want)
	}
	if bc.Pending() != 0 {
		t.Fatalf("pending after retry drain = %d", bc.Pending())
	}
}
