package journal

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkJournalAppendParallel is the durable-ingest acceptance yardstick:
// many goroutines appending to one program's journal with fsync enabled,
// one-write-per-op (the PR-3 baseline) against the group committer. The
// group variant coalesces every concurrently blocked append into a single
// write+fsync, so its per-op cost approaches fsync/batch — the ≥5× parallel
// throughput target falls out of the fsync cost alone (one fsync is
// ~100–200µs on ext4 against a sub-µs buffered write).
func BenchmarkJournalAppendParallel(b *testing.B) {
	variants := []struct {
		name string
		opts Options
	}{
		{"baseline-fsync", Options{Fsync: true}},
		{"group-fsync", Options{Fsync: true, MaxBatch: 256}},
		{"baseline-nosync", Options{}},
		{"group-nosync", Options{MaxBatch: 256}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := make([]byte, 200)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				op := &Op{Kind: OpBatchColumnar, Session: "bench-session", Seq: 1,
					Raw: bytes.Repeat(payload, 8)}
				for pb.Next() {
					if err := s.Append("bench-program", op); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkJournalAppend measures the write-ahead append hot path at a
// realistic op size: an 8-trace batch of ~200-byte encoded traces, the
// shape a pod drain produces.
func BenchmarkJournalAppend(b *testing.B) {
	for _, traces := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("traces=%d", traces), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := make([]byte, 200)
			for i := range payload {
				payload[i] = byte(i)
			}
			op := &Op{Kind: OpBatchColumnar, Session: "bench-session", Seq: 1, Raw: bytes.Repeat(payload, traces)}
			b.SetBytes(int64(traces * len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Seq = uint64(i + 1)
				if err := s.Append("bench-program", op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalAppendColdFleet models a fleet of many mostly-cold
// programs trickling durable appends concurrently: every op lands on a
// different program's journal, so per-record coalescing within one program
// is rare and the cost is dominated by committer scheduling and fsync
// traffic across files. This is the yardstick for pooling group committers
// across programs (one bounded committer pool per data directory instead of
// one goroutine per hot program).
func BenchmarkJournalAppendColdFleet(b *testing.B) {
	for _, programs := range []int{64, 512} {
		b.Run(fmt.Sprintf("programs=%d", programs), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Fsync: true, MaxBatch: 256})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := make([]byte, 200)
			for i := range payload {
				payload[i] = byte(i)
			}
			var next atomic.Int64
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				op := &Op{Kind: OpBatchColumnar, Session: "bench-session", Seq: 1, Raw: payload}
				for pb.Next() {
					id := fmt.Sprintf("bench-program-%d", next.Add(1)%int64(programs))
					if err := s.Append(id, op); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
