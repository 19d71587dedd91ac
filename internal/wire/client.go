package wire

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/pod"
	"repro/internal/ring"
	"repro/internal/trace"
)

// Client is a pod.HiveClient speaking the wire protocol to a remote hive.
// It lazily (re)connects, serializes requests, and surfaces server-side
// errors as Go errors.
//
// Every client carries a random session ID and, per program, a
// monotonically increasing frame sequence number. Submission frames are
// tagged with both, and a frame resent after a reconnect keeps its
// original tag, so a backend with a per-program, per-session dedup window
// (hive.Hive) ingests each batch exactly once no matter how many times the
// link drops mid-stream.
type Client struct {
	addr    string
	session string

	mu   sync.Mutex
	conn net.Conn
	// seqs numbers submission frames per program ID; guarded by mu. The
	// server's dedup window is the exact set of applied seqs per
	// (program, session), so tags only need to be unique and stable within
	// a program — frames may reach the server in any order (concurrent
	// streams on a shared client, parked frames resubmitted drains later)
	// without one frame's progress masking another's. Numbering each
	// program from 1 without gaps lets every program's window compact to
	// its base instead of holding out-of-order marks.
	seqs map[string]uint64

	// The fields below cache the current connection's hello (guarded by
	// mu). Every connection — the first, and every redial after a
	// transport failure — says hello before any other frame (dialLocked),
	// so a redialed connection gets the same frame grant, busy replies and
	// redirects as the first.
	//
	// maxFrame is the granted frame-size limit for writes on this
	// connection (MaxFrameSize unless the hello raised it).
	maxFrame int
	// placement is the map the server advertised (nil when unsharded).
	// lastRedirect remembers the most recent MsgRedirect this client saw,
	// so a later retry-exhausted error can tell "owner moved" from "owner
	// down".
	placement    *ring.Map
	lastRedirect *RedirectError
	// compressing reports the client compresses the frames it seals:
	// allowed, and either forced or the hello's round trip — a free RTT
	// probe — reached compressRTTFloor. Compression costs CPU on both
	// ends, so it auto-engages only when the link is far enough for
	// bandwidth to be the bottleneck; loopback fleets skip it and keep
	// their syscall-bound throughput.
	compressing bool
	// helloCount counts hello exchanges this client has run; tests use it
	// to prove busy replies do not trigger re-hello storms and that a
	// redial says hello again.
	helloCount int

	// rng is the per-client xorshift64 state behind backoff jitter —
	// deliberately not math/rand, so jitter needs no seeding policy and
	// stays allocation-free.
	rng atomic.Uint64

	// sealScratch is the reusable columnar encode buffer for
	// sealFrameLocked (guarded by mu).
	sealScratch []byte
	// hdrScratch and bufScratch are writeCoalesced's reusable header and
	// vector backing arrays (guarded by mu).
	hdrScratch []byte
	bufScratch net.Buffers

	// DisableCoalesce sends every frame on its own instead of in
	// MsgCoalesced mega-frames, and DisableCompression never compresses
	// sealed frames (transport comparisons, debugging). Set before first
	// use.
	DisableCoalesce    bool
	DisableCompression bool
	// ForceCompress compresses every sealed frame that shrinks, ignoring
	// the RTT floor (benches and tests; real WAN links trip the floor on
	// their own). Set before first use.
	ForceCompress bool
	// CoalesceDepth bounds how many inner frames one mega-frame carries
	// (default defaultCoalesceDepth). Set before first use.
	CoalesceDepth int
	// RetryBase and RetryCap bound the jittered exponential backoff used
	// after MsgBusy replies (defaults defaultRetryBase / defaultRetryCap).
	// Set before first use.
	RetryBase time.Duration
	RetryCap  time.Duration
	// BusyRetries is how many busy-backoff rounds a submission survives
	// before the busy error surfaces to the caller (default
	// defaultBusyRetries). Set before first use.
	BusyRetries int
}

var _ pod.HiveClient = (*Client)(nil)
var _ pod.SealedStreamer = (*Client)(nil)

// maxInflightFrames bounds how many submission frames SubmitSealed keeps
// unacknowledged on the socket. The window keeps the server's bounded
// ingest queue and both TCP buffers from absorbing an arbitrarily large
// drain (which could deadlock writer against writer) while still amortizing
// a round trip across the whole window. The coalesced path counts
// mega-frames against the same window: the transport-frame pipelining depth
// is identical, each frame just carries more batches.
const maxInflightFrames = 32

// defaultCoalesceDepth is how many inner frames one mega-frame carries
// when the client does not pin a depth.
const defaultCoalesceDepth = 16

// maxCoalesceDepth caps the depth a client will use: the server's reply
// amplification (one inner ack per inner frame) stays bounded.
const maxCoalesceDepth = 1024

// coalesceByteBudget bounds the bytes of one mega-frame regardless of
// depth, keeping worst-case in-flight volume (window × budget) and the
// server's per-frame buffer modest.
const coalesceByteBudget = 1 << 20

// compressRTTFloor is the hello-RTT above which compression
// auto-engages: past a few milliseconds the link is a network, not a
// loopback, and trading CPU for bytes wins.
const compressRTTFloor = 5 * time.Millisecond

// compressMinBytes skips compression for frames too small to amortize the
// DEFLATE setup.
const compressMinBytes = 512

// defaultBusyRetries is how many busy-backoff rounds a submission
// survives before giving up when the client does not pin its own count.
// With the default schedule the rounds sum to a few seconds — long enough
// to ride out a flash crowd, short enough that a caller with its own
// retry loop (pod.BufferedClient parks unaccepted frames) gets control
// back.
const defaultBusyRetries = 8

// Dial creates a client for the hive at addr. The connection is established
// lazily on first use.
func Dial(addr string) *Client {
	return &Client{addr: addr, session: newSessionID(), seqs: make(map[string]uint64)}
}

// newSessionID draws a random 16-hex-digit session identity.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Session-less operation degrades to at-least-once, never breaks.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// call performs one request/response exchange. On transport errors —
// including a failed dial or hello — it drops the connection and retries
// once with a fresh one; the final error wraps the last underlying
// transport/decode failure instead of a generic unreachability string.
func (c *Client) call(reqType MsgType, payload []byte) (MsgType, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callLocked(reqType, payload)
}

func (c *Client) callLocked(reqType MsgType, payload []byte) (MsgType, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.dialLocked(); err != nil {
			lastErr = err
			continue
		}
		if err := WriteFrame(c.conn, reqType, payload); err != nil {
			if errors.Is(err, ErrFrame) {
				// Oversized payload fails on any connection; don't burn the
				// retry or mask the cause as unreachability.
				return 0, nil, err
			}
			lastErr = fmt.Errorf("write: %w", err)
			_ = c.conn.Close()
			c.conn = nil
			continue
		}
		respType, resp, err := ReadFrame(c.conn)
		if err != nil {
			lastErr = fmt.Errorf("read: %w", err)
			_ = c.conn.Close()
			c.conn = nil
			continue
		}
		return respType, resp, nil
	}
	return 0, nil, c.retryErrLocked(lastErr)
}

// dialLocked establishes the connection if there is none and says hello
// on it: every connection opens with the exchange before any other frame.
func (c *Client) dialLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	if err := c.helloLocked(); err != nil {
		_ = conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// helloLocked runs the hello exchange on the current connection: ask for
// room for mega-frames, adopt the granted limit and the advertised
// placement. The connection is already established, so the exchange is one
// request/response round trip — the RTT probe that decides whether
// compression is worth its CPU.
func (c *Client) helloLocked() error {
	payload, err := json.Marshal(HelloPayload{MaxFrame: MaxCoalescedFrameSize})
	if err != nil {
		return err
	}
	start := time.Now()
	if err := WriteFrame(c.conn, MsgHello, payload); err != nil {
		return fmt.Errorf("wire: hello to %s: %w", c.addr, err)
	}
	respType, resp, err := ReadFrame(c.conn)
	if err != nil {
		return fmt.Errorf("wire: hello to %s: %w", c.addr, err)
	}
	rtt := time.Since(start)
	if respType != MsgHelloAck {
		return fmt.Errorf("wire: %s answered hello with message type %d", c.addr, respType)
	}
	var ack HelloReplyPayload
	if err := json.Unmarshal(resp, &ack); err != nil {
		return fmt.Errorf("wire: bad hello ack from %s: %w", c.addr, err)
	}
	c.helloCount++
	// Trust the grant only within what we asked for.
	c.maxFrame = MaxFrameSize
	if ack.MaxFrame > MaxFrameSize {
		c.maxFrame = min(ack.MaxFrame, MaxCoalescedFrameSize)
	}
	c.placement = placementFromPayload(ack.Placement)
	c.compressing = !c.DisableCompression && (c.ForceCompress || rtt >= compressRTTFloor)
	return nil
}

// retryErrLocked wraps the final transport error after a failed retry. On
// a sharded fleet the message carries the last redirect this client saw
// plus the placement version it was advertised, so an operator can tell
// "owner moved" (a redirect names the new owner) from "owner down" (no
// redirect; the placement still points here) straight from the error
// string.
func (c *Client) retryErrLocked(lastErr error) error {
	routed := ""
	if c.lastRedirect != nil {
		routed = fmt.Sprintf(" (last redirect: program %s -> %s at placement v%d)",
			c.lastRedirect.ProgramID, c.lastRedirect.Owner, c.lastRedirect.Version)
	} else if c.placement != nil {
		routed = fmt.Sprintf(" (no redirect seen at placement v%d)", c.placement.Version())
	}
	return fmt.Errorf("wire: %s unreachable after retry%s: %w", c.addr, routed, lastErr)
}

// noteRedirectLocked remembers the most recent redirect for error
// reporting and hands the advertised placement to PlacementMap readers.
func (c *Client) noteRedirectLocked(err error) {
	var re *RedirectError
	if errors.As(err, &re) {
		c.lastRedirect = re
		if m := placementFromPayload(re.Placement); m != nil {
			if c.placement == nil || m.Version() > c.placement.Version() {
				c.placement = m
			}
		}
	}
}

// HelloCount reports how many hello exchanges this client has run. Tests
// use it to prove a shedding (busy) owner does not trigger a re-hello
// storm the way a dead one does, and that a redial says hello again.
func (c *Client) HelloCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.helloCount
}

// jitter draws the next value in [0, 1) from the per-client xorshift64
// stream (lock-free; any interleaving of concurrent draws is fine).
func (c *Client) jitter() float64 {
	for {
		old := c.rng.Load()
		x := old
		if x == 0 {
			x = 0x9e3779b97f4a7c15
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if c.rng.CompareAndSwap(old, x) {
			return float64(x>>11) / float64(1<<53)
		}
	}
}

// backoff is the delay before busy-retry round attempt (0-based),
// honoring the server's retry-after hint as a floor.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	return backoffDelay(c.RetryBase, c.RetryCap, attempt, hint, c.jitter())
}

// Handshake eagerly dials and says hello. Submission paths connect
// lazily; routers call this up front so the placement map is available
// before the first frame is sealed.
func (c *Client) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dialLocked()
}

// PlacementMap returns the placement advertised by the server's hello, or
// nil when the server is unsharded. Connects on first use.
func (c *Client) PlacementMap() *ring.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.dialLocked()
	return c.placement
}

// RefreshPlacement forces a fresh hello exchange — on the current
// connection if it still works, on a new one otherwise — and returns the
// placement it advertised. Routers call this after a transport error to
// learn about membership changes the old map predates.
func (c *Client) RefreshPlacement() *ring.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		if c.helloLocked() == nil {
			return c.placement
		}
		_ = c.conn.Close()
		c.conn = nil
	}
	_ = c.dialLocked()
	return c.placement
}

// SubmitTraces implements pod.HiveClient: the batch is grouped by program,
// each group is sealed into one frame, and the frames drain through
// SubmitSealed — sequenced, so the transparent retry after a lost ack
// cannot double-ingest. Each group is atomic; the multi-program call is
// not.
func (c *Client) SubmitTraces(traces []*trace.Trace) error {
	_, err := c.SubmitSealed(sealByProgram(c, traces))
	return err
}

// sealByProgram groups traces by program, in first-appearance order, and
// seals each group as one frame.
func sealByProgram(ss pod.SealedStreamer, traces []*trace.Trace) []pod.SealedBatch {
	var order []string
	groups := make(map[string][]*trace.Trace, 1)
	for _, tr := range traces {
		if _, ok := groups[tr.ProgramID]; !ok {
			order = append(order, tr.ProgramID)
		}
		groups[tr.ProgramID] = append(groups[tr.ProgramID], tr)
	}
	sealed := make([]pod.SealedBatch, 0, len(order))
	for _, id := range order {
		sealed = append(sealed, ss.SealTraceBatches(id, [][]*trace.Trace{groups[id]})...)
	}
	return sealed
}

// sealFrameLocked encodes one sequenced submission frame: the columnar
// batch is built in a reusable scratch and, when compression is engaged,
// compressed and shipped as MsgSubmitBatchCompressed if that actually
// saved bytes — the (session, seq) tag stays outside the compressed
// region, and the server inflates back to the identical canonical payload
// before ingest, so dedup and journal byte-identity are untouched. Traces
// that do not all describe programID cannot be encoded; their frame
// carries the tag alone, which the server rejects.
func (c *Client) sealFrameLocked(seq uint64, programID string, traces []*trace.Trace) (MsgType, []byte) {
	// Encode into the reusable scratch: growth amortizes across seals
	// instead of re-estimating the frame size every time.
	raw, err := trace.AppendBatch(c.sealScratch[:0], programID, traces)
	if err != nil {
		return MsgSubmitBatchColumnar, appendSeqPrefix(nil, c.session, seq)
	}
	c.sealScratch = raw
	if c.compressing && len(raw) >= compressMinBytes {
		comp := appendSeqPrefix(make([]byte, 0, len(raw)/4+64), c.session, seq)
		comp = trace.CompressSlab(comp, raw)
		if len(comp) < len(raw) {
			return MsgSubmitBatchCompressed, comp
		}
	}
	payload := appendSeqPrefix(make([]byte, 0, len(raw)+len(c.session)+16), c.session, seq)
	return MsgSubmitBatchColumnar, append(payload, raw...)
}

// SealTraceBatches implements pod.SealedStreamer: every batch becomes a
// sequenced per-program frame whose (session, seq) tag is assigned here,
// once, under the client lock, from programID's own sequence. A sealed frame is a durable exactly-once
// identity: SubmitSealed re-sends the payload verbatim however many times
// (and across however many drains) it takes, so a dedup-capable backend
// never applies it twice — in any submission order, because the backend's
// dedup window is the exact applied set per session, not an in-order
// high-water mark.
func (c *Client) SealTraceBatches(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	sealed := make([]pod.SealedBatch, len(batches))
	c.mu.Lock()
	defer c.mu.Unlock()
	// Connect first: the hello's RTT probe decides compression. Sealing
	// does not need the link, so a failed dial seals with the last known
	// setting and leaves the error to SubmitSealed.
	_ = c.dialLocked()
	for i, batch := range batches {
		c.seqs[programID]++
		msg, payload := c.sealFrameLocked(c.seqs[programID], programID, batch)
		sealed[i] = pod.SealedBatch{
			ProgramID:  programID,
			Count:      len(batch),
			Payload:    payload,
			Compressed: msg == MsgSubmitBatchCompressed,
		}
	}
	return sealed
}

// SubmitSealed implements pod.SealedStreamer: streams previously sealed
// frames back-to-back without waiting for acks (bounded by
// maxInflightFrames), reading the pipelined acks in frame order. Against a
// pipelined server a drain of n frames costs ~n/window round trips instead
// of n. The returned flags report, per frame, whether the server
// acknowledged it — on error a caller re-submits exactly the
// unacknowledged frames, never one the server already ingested.
//
// A transport failure drops the connection and retries once on a fresh one,
// resuming after the last acknowledged frame. Frames written but unacked
// when the connection died keep their original (session, seq) tags on the
// resend — they were sealed before the first attempt — so a dedup-capable
// backend (hive.Hive) acknowledges the ones it already ingested without
// applying them again: resubmission is exactly-once end to end, within a
// drain and across drains. The final error after a failed retry wraps the
// last underlying transport failure.
//
// A MsgBusy reply (the server declined a frame under overload) is not a
// failure: the drain backs off — jittered exponential, floored at the
// server's retry-after hint — and resubmits the unaccepted frames
// verbatim, up to BusyRetries rounds, before surfacing the busy error.
func (c *Client) SubmitSealed(sealed []pod.SealedBatch) ([]bool, error) {
	accepted := make([]bool, len(sealed))
	if len(sealed) == 0 {
		return accepted, nil
	}
	retries := c.BusyRetries
	if retries <= 0 {
		retries = defaultBusyRetries
	}
	var err error
	for round := 0; ; round++ {
		err = c.submitSealedRound(sealed, accepted)
		var be *BusyError
		if err == nil || !errors.As(err, &be) || round >= retries {
			return accepted, err
		}
		// The hive is shedding, not down: back off (jittered exponential,
		// floored at the server's hint) and resubmit only the unaccepted
		// frames — verbatim, so the dedup window stays exact.
		time.Sleep(c.backoff(round, be.RetryAfter))
	}
}

// submitSealedRound runs one drain pass over the frames accepted has not
// yet marked, folding the sub-results back positionally. The first round
// covers everything and pays no copying; busy-retry rounds re-drain the
// (typically short) unaccepted remainder.
func (c *Client) submitSealedRound(sealed []pod.SealedBatch, accepted []bool) error {
	pending := make([]int, 0, len(sealed))
	for i, ok := range accepted {
		if !ok {
			pending = append(pending, i)
		}
	}
	if len(pending) == len(sealed) {
		return c.submitSealedOnce(sealed, accepted)
	}
	sub := make([]pod.SealedBatch, len(pending))
	for j, i := range pending {
		sub[j] = sealed[i]
	}
	subAcc := make([]bool, len(sub))
	err := c.submitSealedOnce(sub, subAcc)
	for j, i := range pending {
		if subAcc[j] {
			accepted[i] = true
		}
	}
	return err
}

// submitSealedOnce is one windowed drain attempt over sealed, marking
// accepted positionally. It holds the client lock throughout; busy
// backoff lives in SubmitSealed, outside the lock.
func (c *Client) submitSealedOnce(sealed []pod.SealedBatch, accepted []bool) error {
	payloads := make([][]byte, len(sealed))
	counts := make([]int, len(sealed))
	msgs := make([]MsgType, len(sealed))
	for i, sb := range sealed {
		payloads[i] = sb.Payload
		counts[i] = sb.Count
		msgs[i] = MsgSubmitBatchColumnar
		if sb.Compressed {
			msgs[i] = MsgSubmitBatchCompressed
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	acked := 0
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.dialLocked(); err != nil {
			lastErr = err
			continue
		}
		var err error
		var transport bool
		if !c.DisableCoalesce {
			err, transport = c.streamCoalescedLocked(msgs, payloads, counts, &acked, accepted)
		} else {
			err, transport = c.streamLocked(msgs, payloads, counts, &acked, accepted)
		}
		if err == nil {
			return nil
		}
		if !transport {
			return err
		}
		lastErr = err
		_ = c.conn.Close()
		c.conn = nil
	}
	return c.retryErrLocked(lastErr)
}

// streamLocked runs one windowed write-ahead pass over the unacknowledged
// suffix of payloads (resuming at *acked): frames are coalesced through a
// buffered writer and flushed once per window refill, acks are read in
// half-window chunks, and *acked / accepted advance as they arrive. The
// second return distinguishes transport failures (retryable on a fresh
// connection) from permanent ones (malformed frame, server rejection).
func (c *Client) streamLocked(msgs []MsgType, payloads [][]byte, counts []int, acked *int, accepted []bool) (error, bool) {
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	written := *acked
	for *acked < len(payloads) {
		for written < len(payloads) && written-*acked < maxInflightFrames {
			if err := WriteFrame(bw, msgs[written], payloads[written]); err != nil {
				// An oversized/malformed frame fails identically on any
				// connection; only real transport errors are retryable.
				return err, !errors.Is(err, ErrFrame)
			}
			written++
		}
		if err := bw.Flush(); err != nil {
			return err, true
		}
		// Drain up to half a window of acks before refilling, so writes and
		// acks both batch instead of alternating one syscall each.
		target := *acked + maxInflightFrames/2
		if target > written {
			target = written
		}
		if err, transport := c.readAcks(counts, acked, target, written, accepted); err != nil {
			return err, transport
		}
	}
	return nil, false
}

// readAcks consumes acks until *acked reaches target, marking accepted
// frames as it goes.
func (c *Client) readAcks(counts []int, acked *int, target, written int, accepted []bool) (error, bool) {
	for *acked < target {
		respType, respBuf, err := readFramePooled(c.conn)
		if err != nil {
			return err, true
		}
		ackErr := checkAck(respType, *respBuf, counts[*acked])
		framePool.Put(respBuf)
		if err := ackErr; err != nil {
			c.noteRedirectLocked(err)
			// Server-reported rejection mid-stream: keep reading the acks
			// for frames already on the wire — the server keeps serving
			// after rejecting one batch, so later frames may well have been
			// ingested and must be marked accepted (re-submitting them
			// would double-count). Then surface the first error.
			for i := *acked + 1; i < written; i++ {
				respType, resp, rerr := ReadFrame(c.conn)
				if rerr != nil {
					_ = c.conn.Close()
					c.conn = nil
					break
				}
				accepted[i] = checkAck(respType, resp, counts[i]) == nil
			}
			return err, false
		}
		accepted[*acked] = true
		*acked++
	}
	return nil, false
}

// streamCoalescedLocked is streamLocked in mega-frames (the default): the
// unacknowledged suffix is cut into groups of up to CoalesceDepth
// frames under a byte budget, every group ships as one MsgCoalesced
// mega-frame written with a single writev, and the server answers one
// mega-frame of inner acks per group. The pipelining window counts
// transport frames exactly like streamLocked (maxInflightFrames groups in
// flight); each just carries more batches. Ack semantics are per inner
// frame, so exactly-once dedup and the resume-at-*acked retry are
// identical to the uncoalesced path.
func (c *Client) streamCoalescedLocked(msgs []MsgType, payloads [][]byte, counts []int, acked *int, accepted []bool) (error, bool) {
	depth := c.CoalesceDepth
	if depth <= 0 {
		depth = defaultCoalesceDepth
	}
	if depth > maxCoalesceDepth {
		depth = maxCoalesceDepth
	}
	budget := c.maxFrame - 64
	if budget > coalesceByteBudget {
		budget = coalesceByteBudget
	}
	type span struct{ start, end int }
	groups := make([]span, 0, maxInflightFrames)
	head := 0
	sent := *acked
	for *acked < len(payloads) {
		for sent < len(payloads) && len(groups)-head < maxInflightFrames {
			end := sent
			size := 0
			for end < len(payloads) && end-sent < depth {
				fb := 5 + len(payloads[end])
				if end > sent && size+fb > budget {
					break
				}
				size += fb
				end++
			}
			var err error
			if end == sent+1 && size+6 > c.maxFrame {
				// A lone frame too big to wrap in a mega-frame under the
				// granted limit ships plain; its ack comes back plain too.
				err = WriteFrame(c.conn, msgs[sent], payloads[sent])
			} else {
				c.hdrScratch, c.bufScratch, err = writeCoalesced(c.conn, msgs, payloads, sent, end, c.hdrScratch, c.bufScratch)
			}
			if err != nil {
				return err, !errors.Is(err, ErrFrame)
			}
			groups = append(groups, span{sent, end})
			sent = end
		}
		g := groups[head]
		head++
		if err, transport := c.readGroupAck(counts, accepted, g.start, g.end); err != nil {
			if transport {
				return err, true
			}
			// The server rejected an inner frame but keeps serving: drain
			// the acks for groups already on the wire — later frames may
			// well have been ingested and must be marked accepted
			// (re-submitting them would double-count) — then surface the
			// first error.
			for head < len(groups) {
				g := groups[head]
				head++
				if _, transport := c.readGroupAck(counts, accepted, g.start, g.end); transport {
					_ = c.conn.Close()
					c.conn = nil
					break
				}
			}
			return err, false
		}
		for *acked < len(payloads) && accepted[*acked] {
			*acked++
		}
		if head == len(groups) {
			groups, head = groups[:0], 0
		}
	}
	return nil, false
}

// readGroupAck reads the server's reply for one coalesced group and checks
// its inner acks against frames [start, end), marking accepted ones. A
// non-transport error is the first inner rejection (or a protocol
// violation); the caller decides whether to keep draining.
func (c *Client) readGroupAck(counts []int, accepted []bool, start, end int) (error, bool) {
	respType, bp, err := readFramePooled(c.conn)
	if err != nil {
		return err, true
	}
	defer framePool.Put(bp)
	if respType != MsgCoalesced {
		if end-start == 1 {
			// Plain ack for a group that shipped as a plain frame.
			if err := checkAck(respType, *bp, counts[start]); err != nil {
				c.noteRedirectLocked(err)
				return err, false
			}
			accepted[start] = true
			return nil, false
		}
		if respType == MsgError {
			var ep ErrorPayload
			if json.Unmarshal(*bp, &ep) == nil && ep.Error != "" {
				return errors.New("wire: server: " + ep.Error), false
			}
		}
		return fmt.Errorf("wire: unexpected response type %d for coalesced group", respType), false
	}
	i := start
	var firstErr error
	if err := forEachInner(*bp, func(t MsgType, inner []byte) error {
		if i >= end {
			return fmt.Errorf("%w: more inner acks than frames in group", ErrFrame)
		}
		if err := checkAck(t, inner, counts[i]); err != nil {
			c.noteRedirectLocked(err)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			accepted[i] = true
		}
		i++
		return nil
	}); err != nil {
		return err, false
	}
	if i != end {
		return fmt.Errorf("%w: %d inner acks for %d frames in group", ErrFrame, i-start, end-start), false
	}
	return firstErr, false
}

// checkAck validates one submission reply: a binary ack, a redirect, or a
// busy reply.
func checkAck(respType MsgType, resp []byte, want int) error {
	switch respType {
	case MsgAckBin:
		accepted, _, errMsg, err := decodeAckBin(resp)
		if err != nil {
			return fmt.Errorf("wire: bad ack: %w", err)
		}
		if errMsg != "" {
			return errors.New("wire: server: " + errMsg)
		}
		if accepted != want {
			return fmt.Errorf("wire: server accepted %d of %d traces", accepted, want)
		}
		return nil
	case MsgRedirect:
		var rp RedirectPayload
		if err := json.Unmarshal(resp, &rp); err != nil {
			return fmt.Errorf("wire: bad redirect: %w", err)
		}
		re := &RedirectError{ProgramID: rp.ProgramID, Owner: rp.Owner, Placement: rp.Placement}
		if rp.Placement != nil {
			re.Version = rp.Placement.Version
		}
		return re
	case MsgBusy:
		var bp BusyPayload
		if err := json.Unmarshal(resp, &bp); err != nil {
			return fmt.Errorf("wire: bad busy reply: %w", err)
		}
		return &BusyError{RetryAfter: time.Duration(bp.RetryAfterMs) * time.Millisecond, Reason: bp.Reason}
	default:
		return fmt.Errorf("wire: unexpected response type %d", respType)
	}
}

// FixesSince implements pod.HiveClient.
func (c *Client) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	payload, err := json.Marshal(GetFixesPayload{ProgramID: programID, Version: version})
	if err != nil {
		return nil, 0, err
	}
	respType, resp, err := c.call(MsgGetFixes, payload)
	if err != nil {
		return nil, 0, err
	}
	if respType != MsgFixes {
		return nil, 0, fmt.Errorf("wire: unexpected response type %d", respType)
	}
	var out FixesPayload
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, 0, fmt.Errorf("wire: bad fixes payload: %w", err)
	}
	if out.Error != "" {
		return nil, 0, errors.New("wire: server: " + out.Error)
	}
	fixes := make([]fix.Fix, 0, len(out.Fixes))
	for _, raw := range out.Fixes {
		f, err := fix.Decode(raw)
		if err != nil {
			return nil, 0, err
		}
		fixes = append(fixes, *f)
	}
	return fixes, out.Version, nil
}

// Guidance implements pod.HiveClient.
func (c *Client) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	payload, err := json.Marshal(GetGuidancePayload{ProgramID: programID, Max: max})
	if err != nil {
		return nil, err
	}
	respType, resp, err := c.call(MsgGetGuidance, payload)
	if err != nil {
		return nil, err
	}
	if respType != MsgGuidance {
		return nil, fmt.Errorf("wire: unexpected response type %d", respType)
	}
	var out GuidancePayload
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("wire: bad guidance payload: %w", err)
	}
	if out.Error != "" {
		return nil, errors.New("wire: server: " + out.Error)
	}
	cases := make([]guidance.TestCase, 0, len(out.Cases))
	for _, raw := range out.Cases {
		var tc guidance.TestCase
		if err := json.Unmarshal(raw, &tc); err != nil {
			return nil, fmt.Errorf("wire: bad test case: %w", err)
		}
		cases = append(cases, tc)
	}
	return cases, nil
}
