package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/journal"
)

// TestDeterministicSchedule: the same seed over the same operation sequence
// injects the same faults — the property every shrunk reproduction relies on.
func TestDeterministicSchedule(t *testing.T) {
	run := func() Stats {
		dir := t.TempDir()
		ffs := Wrap(nil, Plan{Seed: 42, TornWriteRate: 0.3, SyncErrRate: 0.3, WriteErrRate: 0.2})
		for i := 0; i < 50; i++ {
			f, err := ffs.OpenFile(filepath.Join(dir, fmt.Sprintf("f%d", i)), os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				continue
			}
			_, _ = f.Write([]byte("payload-payload-payload"))
			_ = f.Sync()
			_ = f.Close()
		}
		return ffs.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules: %+v vs %+v", a, b)
	}
	if a.TornWrites == 0 || a.SyncErrs == 0 || a.WriteErrs == 0 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
}

// TestCrashLatch: once the crash point fires every later operation fails,
// and Heal lifts the latch.
func TestCrashLatch(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, Plan{Seed: 1, CrashAfterOps: 3})
	path := filepath.Join(dir, "f")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644) // op 1
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil { // op 2
		t.Fatalf("write before crash point: %v", err)
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrCrashed) { // op 3 latches
		t.Fatalf("write at crash point: got %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: got %v, want ErrCrashed", err)
	}
	if _, err := ffs.OpenFile(path, os.O_RDONLY, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: want ErrCrashed")
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() false after latch")
	}
	ffs.Heal()
	if ffs.Crashed() {
		t.Fatal("Crashed() true after Heal")
	}
	if _, err := ffs.OpenFile(path, os.O_RDONLY, 0); err != nil {
		t.Fatalf("open after heal: %v", err)
	}
}

// TestENOSPCSurfacesCleanly: a clean write failure reports ENOSPC and lands
// no bytes.
func TestENOSPCSurfacesCleanly(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, Plan{Seed: 7, WriteErrRate: 1.0})
	f, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("data")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	_ = f.Close()
	data, _ := os.ReadFile(filepath.Join(dir, "f"))
	if len(data) != 0 {
		t.Fatalf("clean write failure leaked %d bytes", len(data))
	}
}

// TestJournalSurvivesFaultStorm: a journal hammered through the injector
// never lies — every append it acked is replayed intact after a clean
// re-open, and every append it failed is absent or rolled back. This is the
// core faultfs/journal contract the matrix tests build on.
func TestJournalSurvivesFaultStorm(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := Wrap(nil, Plan{
				Seed:           seed,
				TornWriteRate:  0.10,
				ShortWriteRate: 0.05,
				WriteErrRate:   0.05,
				SyncErrRate:    0.10,
			})
			st, err := journal.Open(dir, journal.Options{Fsync: true, FS: ffs})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			const program = "prog-storm"
			var acked []uint64
			for seq := uint64(1); seq <= 200; seq++ {
				op := &journal.Op{Kind: journal.OpBatchColumnar, Session: "s", Seq: seq, Raw: []byte{byte(seq)}}
				if err := st.Append(program, op); err == nil {
					acked = append(acked, seq)
				}
			}
			_ = st.Close()

			// Clean re-open on the real filesystem: the post-crash boot.
			st2, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatalf("re-open: %v", err)
			}
			defer st2.Close()
			got := map[uint64]bool{}
			if _, err := st2.Replay(program, func(op *journal.Op) error {
				got[op.Seq] = true
				return nil
			}); err != nil {
				t.Fatalf("replay: %v", err)
			}
			for _, seq := range acked {
				if !got[seq] {
					t.Fatalf("seed %d: acked seq %d lost (acked %d, replayed %d)", seed, seq, len(acked), len(got))
				}
			}
		})
	}
}
