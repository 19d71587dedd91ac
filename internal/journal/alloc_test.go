package journal

import (
	"testing"

	"repro/internal/race"
)

// TestAllocsAppend guards the write-ahead append hot path: with the op
// encoded straight into the program's reused scratch and framed into the
// reused write buffer, a serial durable append allocates nothing — the
// budget a fleet-scale ingest path has to hold, since every acknowledged
// batch pays it.
func TestAllocsAppend(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 200)
	op := &Op{Kind: OpBatchColumnar, Session: "alloc-session", Seq: 1, Raw: payload}
	// Warm: open the file, grow the scratch buffers.
	if err := s.Append("alloc-program", op); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		op.Seq++
		if err := s.Append("alloc-program", op); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("serial journal append costs %.1f allocs; want 0", avg)
	}
}

// TestAllocsEncodeOpInto guards the op encoder both append paths share.
func TestAllocsEncodeOpInto(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed under the race detector")
	}
	payload := make([]byte, 200)
	op := &Op{Kind: OpBatchColumnar, Session: "alloc-session", Seq: 9, Raw: payload}
	var scratch, frame []byte
	scratch = appendOp(scratch[:0], op)
	frame = appendRecord(frame[:0], scratch)
	avg := testing.AllocsPerRun(200, func() {
		scratch = appendOp(scratch[:0], op)
		frame = appendRecord(frame[:0], scratch)
	})
	if avg > 0 {
		t.Fatalf("op encode+frame costs %.1f allocs; want 0", avg)
	}
}
