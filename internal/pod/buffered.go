package pod

import (
	"sync"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/trace"
)

// BufferedClient wraps a HiveClient and defers trace uploads: SubmitTraces
// queues locally and Drain forwards everything queued to the backend in one
// batch. Fix distribution and guidance pass through unbuffered.
//
// This is the determinism lever for parallel fleets: when many pods run
// concurrently, giving each its own BufferedClient and draining them in a
// fixed pod order at a barrier makes hive ingestion order — and therefore
// which trace wins fix synthesis for a new failure signature — identical to
// a sequential fleet, no matter how the pods were scheduled.
//
// A buffer bound to a program (NewBufferedFor) drains through the backend's
// fast paths when available: sealed sequenced streaming (SealedStreamer,
// the wire client — exactly-once across drains) or zero-copy columnar
// submission (ColumnarSubmitter, the in-process hive — the journal gets
// the batch bytes verbatim, no re-encode), falling back to plain
// SubmitTraces otherwise.
type BufferedClient struct {
	backend   HiveClient
	programID string

	mu     sync.Mutex
	queued []*trace.Trace
	// sealed holds sequenced frames from earlier drains that were sealed
	// (tags assigned) but never acknowledged: a drain whose transparent
	// retry also failed parks its unacknowledged frames here, and the next
	// drain re-submits them with their original (session, seq) tags — so
	// cross-drain resubmission stays exactly-once against a dedup-capable
	// backend instead of degrading to at-least-once.
	sealed []SealedBatch
}

var _ HiveClient = (*BufferedClient)(nil)

// streamChunk is the per-frame batch size a bound buffer seals or encodes:
// small enough to keep frames far under the wire limit, large enough to
// amortize framing.
const streamChunk = 256

// NewBuffered wraps backend.
func NewBuffered(backend HiveClient) *BufferedClient {
	return &BufferedClient{backend: backend}
}

// NewBufferedFor wraps backend for a pod that runs exactly one program:
// every queued trace is asserted to describe programID, which unlocks the
// backend's sealed and columnar drain paths.
func NewBufferedFor(backend HiveClient, programID string) *BufferedClient {
	return &BufferedClient{backend: backend, programID: programID}
}

// SubmitTraces queues the batch for the next Drain.
func (b *BufferedClient) SubmitTraces(traces []*trace.Trace) error {
	b.mu.Lock()
	b.queued = append(b.queued, traces...)
	b.mu.Unlock()
	return nil
}

// FixesSince passes through to the backend.
func (b *BufferedClient) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	return b.backend.FixesSince(programID, version)
}

// Guidance passes through to the backend.
func (b *BufferedClient) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	return b.backend.Guidance(programID, max)
}

// Pending reports how many traces are queued, including traces sealed into
// frames by a failed drain and awaiting resubmission.
func (b *BufferedClient) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.queued)
	for _, sb := range b.sealed {
		n += sb.Count
	}
	return n
}

// Drain forwards all queued traces to the backend, preserving queue order.
// On backend failure the unaccepted remainder is re-queued (ahead of
// anything queued meanwhile) and the error returned: a streaming backend
// reports which chunks of the drain it acknowledged, so this client never
// re-submits an acknowledged chunk. A chunk whose ack was lost with the
// connection is resent with its original (session, sequence) tag — by the
// stream's transparent retry within one drain, and, against a
// SealedStreamer backend, by later drains too: frames are sealed once,
// parked on failure, and re-submitted verbatim until acknowledged, so a
// dedup-capable backend ingests every chunk exactly once across any number
// of failed drains.
func (b *BufferedClient) Drain() error {
	b.mu.Lock()
	batch := b.queued
	b.queued = nil
	sealed := b.sealed
	b.sealed = nil
	b.mu.Unlock()
	if ss, ok := b.backend.(SealedStreamer); ok && b.programID != "" {
		return b.drainSealed(ss, sealed, batch)
	}
	if len(batch) == 0 {
		return nil
	}
	if requeue, err := b.submit(batch); err != nil {
		b.mu.Lock()
		b.queued = append(requeue, b.queued...)
		b.mu.Unlock()
		return err
	}
	return nil
}

// drainSealed is the exactly-once drain path: leftover sealed frames from
// failed drains go first (oldest tags first), the fresh queue is sealed
// behind them, and whatever the backend does not acknowledge is parked —
// still sealed — for the next drain.
func (b *BufferedClient) drainSealed(ss SealedStreamer, sealed []SealedBatch, batch []*trace.Trace) error {
	if len(batch) > 0 {
		rest := batch
		chunks := make([][]*trace.Trace, 0, (len(rest)+streamChunk-1)/streamChunk)
		for len(rest) > streamChunk {
			chunks = append(chunks, rest[:streamChunk])
			rest = rest[streamChunk:]
		}
		chunks = append(chunks, rest)
		sealed = append(sealed, ss.SealTraceBatches(b.programID, chunks)...)
	}
	if len(sealed) == 0 {
		return nil
	}
	accepted, err := ss.SubmitSealed(sealed)
	if err == nil {
		return nil
	}
	// Park every unacknowledged frame with its tag intact, whatever the
	// failure was. A frame in delivered-but-unacked limbo is dup-suppressed
	// on resubmission; a frame the server rejected (never applied) is
	// re-attempted under the same tag and ingested then — the backend's
	// dedup window is the exact applied set, so neither case depends on
	// ordering relative to other frames.
	var park []SealedBatch
	for i, sb := range sealed {
		if i >= len(accepted) || !accepted[i] {
			park = append(park, sb)
		}
	}
	b.mu.Lock()
	b.sealed = append(park, b.sealed...)
	b.mu.Unlock()
	return err
}

// submit picks the fastest submission path the backend offers for this
// buffer: zero-copy columnar chunks, or plain submission. On error it
// returns the traces the backend did not accept, in queue order (plain
// submission is all-or-nothing: a failure accepts nothing).
func (b *BufferedClient) submit(batch []*trace.Trace) ([]*trace.Trace, error) {
	if cs, ok := b.backend.(ColumnarSubmitter); ok && b.programID != "" {
		return b.submitColumnar(cs, batch)
	}
	return batch, b.backend.SubmitTraces(batch)
}

// submitColumnar drains straight through an in-process columnar backend:
// each chunk is encoded once into the columnar batch form and handed over
// as a zero-copy view, so a durable backend (hive.Hive) journals those
// bytes verbatim — the in-process fleet path skips the per-trace journal
// re-encode exactly like the wire path does. The submission is untagged
// (empty session): in process there is no link to lose, so there is
// nothing for a dedup window to suppress. On error the unaccepted suffix
// is returned for re-queueing, starting at the failed chunk.
func (b *BufferedClient) submitColumnar(cs ColumnarSubmitter, batch []*trace.Trace) ([]*trace.Trace, error) {
	var enc []byte
	for start := 0; start < len(batch); start += streamChunk {
		end := start + streamChunk
		if end > len(batch) {
			end = len(batch)
		}
		chunk := batch[start:end]
		var err error
		enc, err = trace.AppendBatch(enc[:0], b.programID, chunk)
		if err != nil {
			return batch[start:], err
		}
		view, err := trace.DecodeBatch(enc)
		if err != nil {
			return batch[start:], err
		}
		_, err = cs.SubmitColumnarSession("", 0, view)
		view.Release()
		if err != nil {
			return batch[start:], err
		}
	}
	return nil, nil
}
