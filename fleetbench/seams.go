package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/trace"
)

// span is one timed call into a layer, recorded from this benchmark's own
// files. Client-side spans carry the id of the workload operation (drain,
// session, guidance pull) they belong to; server-side spans carry op 0 and
// are linked to client spans by key.
type span struct {
	layer      string
	start, end int64 // ns since the tracer's epoch
	op         int64
	key        string
	n          int64 // bytes or traces, per layer
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

func (t *tracer) end(layer string, start, op int64, key string, n int64) {
	if t == nil {
		return
	}
	s := span{layer: layer, start: start, end: t.now(), op: op, key: key, n: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// frameKey links a client-side sealed frame to the hive submit that
// applies it: program, first trace's pod, and the trace-seq range. The
// benchmark assigns trace seqs so the key is unique within a run.
func frameKey(programID, podID string, first, last uint64) string {
	return programID + "/" + podID + "/" + strconv.FormatUint(first, 10) + "-" + strconv.FormatUint(last, 10)
}

func chunkKey(programID string, chunk []*trace.Trace) string {
	return frameKey(programID, chunk[0].PodID, chunk[0].Seq, chunk[len(chunk)-1].Seq)
}

// tracedHive is the server-side seam: a forwarding wrapper around the hive
// handed to wire.NewServer in traced runs. It implements exactly the
// optional pod interfaces the hive implements (TestTracedHiveInterfaces
// pins this), so the server takes the same code path as with the bare
// hive. Optional interfaces are reached through assertions on the wrapped
// client, so removing an entry point from the hive fails that test rather
// than this package's build.
type tracedHive struct {
	inner pod.HiveClient
	tr    *tracer
	dups  atomic.Int64
}

var (
	_ pod.HiveClient        = (*tracedHive)(nil)
	_ pod.ProgramSubmitter  = (*tracedHive)(nil)
	_ pod.SessionSubmitter  = (*tracedHive)(nil)
	_ pod.ColumnarSubmitter = (*tracedHive)(nil)
	_ pod.PressureSink      = (*tracedHive)(nil)
)

func (w *tracedHive) SubmitTraces(traces []*trace.Trace) error {
	return w.inner.SubmitTraces(traces)
}

func (w *tracedHive) SubmitTracesFor(programID string, traces []*trace.Trace) error {
	return w.inner.(pod.ProgramSubmitter).SubmitTracesFor(programID, traces)
}

func (w *tracedHive) SubmitTracesSession(session string, seq uint64, programID string, traces []*trace.Trace) (bool, error) {
	return w.inner.(pod.SessionSubmitter).SubmitTracesSession(session, seq, programID, traces)
}

func (w *tracedHive) SubmitColumnarSession(session string, seq uint64, b *trace.BatchView) (bool, error) {
	var key string
	if n := b.Len(); n > 0 {
		key = frameKey(b.ProgramID(), b.PodID(0), b.Seq(0), b.Seq(n-1))
	}
	start := w.tr.now()
	dup, err := w.inner.(pod.ColumnarSubmitter).SubmitColumnarSession(session, seq, b)
	w.tr.end("hive.submit", start, 0, key, int64(b.Len()))
	if dup {
		w.dups.Add(1)
	}
	return dup, err
}

func (w *tracedHive) SetPressureSource(f func() float64) {
	w.inner.(pod.PressureSink).SetPressureSource(f)
}

func (w *tracedHive) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	start := w.tr.now()
	fixes, v, err := w.inner.FixesSince(programID, version)
	w.tr.end("hive.fixes", start, 0, programID, 0)
	return fixes, v, err
}

func (w *tracedHive) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	start := w.tr.now()
	cases, err := w.inner.Guidance(programID, max)
	w.tr.end("hive.guidance", start, 0, programID, int64(len(cases)))
	return cases, err
}

// tracedClient is the client-side seam for pods that drain through
// pod.BufferedClient: it counts the frame bytes the wire client seals,
// records guidance round trips in lat and, with a tracer, times the seal
// and submit halves and the fix/guidance round trips. It implements the
// same pod interfaces BufferedClient looks for on a wire client
// (HiveClient, SealedStreamer), so the drain takes the sealed path either
// way.
type tracedClient struct {
	c interface {
		pod.HiveClient
		pod.SealedStreamer
	}
	tr  *tracer
	cnt *frameCounter
	lat *samples // ms per successful guidance round trip
	op  *int64   // the owning goroutine's current operation
}

func (w *tracedClient) SubmitTraces(traces []*trace.Trace) error { return w.c.SubmitTraces(traces) }

func (w *tracedClient) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	start := w.tr.now()
	fixes, v, err := w.c.FixesSince(programID, version)
	w.tr.end("wire.fixes", start, *w.op, programID, 0)
	return fixes, v, err
}

func (w *tracedClient) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	start := w.tr.now()
	t0 := time.Now()
	cases, err := w.c.Guidance(programID, max)
	if err == nil && w.lat != nil {
		w.lat.addDur(time.Since(t0), time.Millisecond)
	}
	w.tr.end("wire.guidance", start, *w.op, programID, int64(len(cases)))
	return cases, err
}

func (w *tracedClient) SealTraceBatches(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	return sealTraced(w.tr, *w.op, w.c, w.cnt, programID, batches)
}

func (w *tracedClient) SubmitSealed(sealed []pod.SealedBatch) ([]bool, error) {
	return submitTraced(w.tr, *w.op, w.c, sealed)
}

// frameCounter totals the sealed frame bytes and traces a client shipped.
type frameCounter struct {
	bytes, traces atomic.Int64
}

// sealTraced seals batches, counts their bytes, and, when tracing, records
// the seal span plus one zero-length frame marker per batch carrying its
// link key.
func sealTraced(tr *tracer, op int64, ss pod.SealedStreamer, cnt *frameCounter, programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	start := tr.now()
	sealed := ss.SealTraceBatches(programID, batches)
	var traces, bytes int64
	for i, b := range batches {
		traces += int64(len(b))
		bytes += int64(len(sealed[i].Payload))
	}
	cnt.bytes.Add(bytes)
	cnt.traces.Add(traces)
	if tr == nil {
		return sealed
	}
	tr.end("wire.seal", start, op, "", traces)
	at := tr.now()
	for _, b := range batches {
		if len(b) > 0 {
			tr.end("wire.frame", at, op, chunkKey(programID, b), int64(len(b)))
		}
	}
	tr.end("wire.frame_bytes", at, op, "", bytes)
	return sealed
}

func submitTraced(tr *tracer, op int64, ss pod.SealedStreamer, sealed []pod.SealedBatch) ([]bool, error) {
	start := tr.now()
	acc, err := ss.SubmitSealed(sealed)
	tr.end("wire.submit", start, op, "", int64(len(sealed)))
	return acc, err
}

// timingFS is the journal seam used in traced runs: every call passes
// through to the wrapped FS unchanged; writes, syncs and reads are timed.
type timingFS struct {
	inner journal.FS
	tr    *tracer
}

var _ journal.FS = timingFS{}

// fileKind classifies a journal file by name: the write-ahead log, a
// snapshot (full or delta, including its temp file), or anything else.
func fileKind(name string) string {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return "wal"
	case strings.HasPrefix(base, "snap-"), strings.HasPrefix(base, "delta-"):
		return "snap"
	default:
		return "other"
	}
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if file == nil {
		return nil, err
	}
	return &timingFile{File: file, tr: f.tr, kind: fileKind(name)}, err
}

func (f timingFS) ReadFile(name string) ([]byte, error) {
	start := f.tr.now()
	b, err := f.inner.ReadFile(name)
	f.tr.end("fs.read", start, 0, fileKind(name), int64(len(b)))
	return b, err
}

func (f timingFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f timingFS) Remove(name string) error                   { return f.inner.Remove(name) }
func (f timingFS) Rename(oldpath, newpath string) error       { return f.inner.Rename(oldpath, newpath) }
func (f timingFS) Truncate(name string, size int64) error     { return f.inner.Truncate(name, size) }
func (f timingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

type timingFile struct {
	journal.File
	tr   *tracer
	kind string
}

func (f *timingFile) Read(p []byte) (int, error) {
	start := f.tr.now()
	n, err := f.File.Read(p)
	f.tr.end("fs.read", start, 0, f.kind, int64(n))
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := f.tr.now()
	n, err := f.File.Write(p)
	f.tr.end("fs.write", start, 0, f.kind, int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := f.tr.now()
	err := f.File.Sync()
	f.tr.end("fs.sync", start, 0, f.kind, 0)
	return err
}
