// Package wire implements the pod↔hive telemetry protocol over TCP:
// length-prefixed frames carrying a type byte and a payload (columnar trace
// batches on the hot path, JSON for control messages). Every connection
// opens with a hello exchange (MsgHello/MsgHelloAck) that grants the
// connection's frame-size limit and, on a sharded hive, advertises the
// placement map; a server refuses submissions on a connection that has not
// said hello. The Client satisfies pod.HiveClient, so a pod is pointed
// either at an in-process hive or at a remote one without code changes;
// the Server wraps any pod.HiveClient backend that also implements
// pod.ColumnarSubmitter (normally *hive.Hive).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// MsgType discriminates frames.
type MsgType uint8

// Frame types. The values are wire format and are pinned explicitly.
// Retired values stay reserved and are answered MsgError ("unknown message
// type"): 1 (unsequenced grouped submission), 2 (JSON submission ack), 8
// (per-program submission) and 9 (sequenced per-trace submission).
const (
	MsgGetFixes    MsgType = 3
	MsgFixes       MsgType = 4
	MsgGetGuidance MsgType = 5
	MsgGuidance    MsgType = 6
	MsgError       MsgType = 7
	// MsgHello opens every connection: the client asks for a frame-size
	// limit (JSON HelloPayload) and the server answers MsgHelloAck with the
	// grant and, when it is a ring member, its placement map. Submissions
	// on a connection that has not said hello are refused.
	MsgHello MsgType = 10
	// MsgHelloAck carries the server's hello answer (HelloReplyPayload).
	MsgHelloAck MsgType = 11
	// MsgAckBin is the binary submission acknowledgement: uvarint accepted
	// count, a flags byte (bit 0 = duplicate), then the error string (empty
	// on success). It spares the ingest hot path a JSON marshal and parse
	// per frame in each direction.
	MsgAckBin MsgType = 12
	// MsgSubmitBatchColumnar is sequenced per-program submission whose
	// payload, after the (session, seq) prefix, is one columnar-encoded
	// batch (trace.BatchCodec): the program ID rides once in the batch
	// header, fields are column-wise, and the backend ingests the batch
	// through a zero-copy trace.BatchView — journaling those same payload
	// bytes verbatim — without materializing Trace structs. A frame resent
	// after a reconnect carries its original (session, seq), so the
	// backend's per-session dedup window acknowledges already-applied
	// frames without re-ingesting them. Clients may pipeline many of these
	// frames back-to-back; the server acks each in arrival order.
	MsgSubmitBatchColumnar MsgType = 13
	// MsgCoalesced is a mega-frame: its payload is a back-to-back run of
	// complete standard frames (4-byte length, type byte, payload each),
	// written with a single writev so a whole pipelining window costs one
	// syscall instead of one per frame — the syscall bound BENCH_PR5
	// measured on the loopback submit path, and the round-trip bound at WAN
	// distances. The server dispatches each inner frame exactly as if it
	// had arrived alone and answers with one MsgCoalesced carrying the
	// inner replies in order, so per-inner-frame acks (and with them the
	// exactly-once session dedup) are untouched. Nested coalesced frames
	// are rejected.
	MsgCoalesced MsgType = 14
	// MsgSubmitBatchCompressed is MsgSubmitBatchColumnar with the batch
	// bytes after the (session, seq) prefix compressed by
	// trace.CompressSlab (uvarint decompressed length + DEFLATE). The
	// compression is transport-only: the server inflates before ingest, so
	// the journaled bytes are the canonical decompressed columnar payload,
	// byte-identical to an uncompressed submission of the same batch. Dedup
	// semantics are identical to MsgSubmitBatchColumnar.
	MsgSubmitBatchCompressed MsgType = 15
	// MsgRedirect answers a submission for a program this hive does not
	// own under the current placement map: the payload (RedirectPayload)
	// names the owning node and carries the full placement, so the client
	// re-dials the owner and resubmits its parked sealed frames verbatim —
	// the (session, seq) dedup guarantees no acknowledged trace is ever
	// double-applied across the move.
	MsgRedirect MsgType = 16
	// MsgBusy answers a submission the server declines to ingest right now
	// under overload: the payload (BusyPayload) carries a retry-after hint
	// and the shed/limit reason. The frame was NOT applied — the client
	// must resubmit it (verbatim, for sealed frames) after backing off, so
	// exactly-once semantics are untouched: a busy frame is simply a frame
	// that has not been acknowledged yet. Busy replies are emitted by the
	// per-connection worker in the reply slot the frame's ack would have
	// occupied, so pipelined clients keep matching acks to frames by order.
	MsgBusy MsgType = 17
)

// MaxFrameSize bounds a frame; larger frames are rejected as hostile.
// Connections whose hello was granted a larger limit accept frames up to
// the granted size (at most MaxCoalescedFrameSize) instead.
const MaxFrameSize = 16 << 20

// MaxCoalescedFrameSize caps the frame-size raise a hello exchange may
// grant: room for a full pipelining window of coalesced maximum-size inner
// frames without letting a hostile peer demand unbounded buffers.
const MaxCoalescedFrameSize = 64 << 20

// ErrFrame is wrapped by framing failures.
var ErrFrame = errors.New("wire: bad frame")

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return fmt.Errorf("%w: payload %d exceeds max", ErrFrame, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameHeader reads and validates one frame header, returning the type
// and payload size.
func readFrameHeader(r io.Reader) (MsgType, int, error) {
	return readFrameHeaderLimit(r, MaxFrameSize)
}

// readFrameHeaderLimit is readFrameHeader under a granted frame-size
// limit.
func readFrameHeaderLimit(r io.Reader, limit int) (MsgType, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > uint32(limit) {
		return 0, 0, fmt.Errorf("%w: size %d", ErrFrame, size)
	}
	return MsgType(hdr[4]), int(size - 1), nil
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	t, size, err := readFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// --- control-message payloads (JSON) ---

// HelloPayload opens a connection. MaxFrame, when positive, asks the
// server to raise the connection's frame-size limit (room for mega-frames).
type HelloPayload struct {
	MaxFrame int `json:"maxFrame,omitempty"`
}

// HelloReplyPayload answers a hello. MaxFrame, when positive, is the
// frame-size limit the server granted for the rest of the connection —
// min(requested, server cap), never below MaxFrameSize; zero (no raise
// requested) means the default limit stands. Placement is the server's
// current placement map, set only by a server that is a ring member (an
// unsharded hive stays silent and clients route everything to it).
type HelloReplyPayload struct {
	MaxFrame  int               `json:"maxFrame,omitempty"`
	Placement *PlacementPayload `json:"placement,omitempty"`
}

// PlacementPayload is the wire form of a ring.Map: the versioned node set
// plus the hash parameters, enough for any receiver to rebuild the exact
// same circle (ownership is a pure function of these fields and the key).
type PlacementPayload struct {
	Version uint64   `json:"version"`
	Nodes   []string `json:"nodes"`
	VNodes  int      `json:"vnodes"`
	Seed    uint64   `json:"seed"`
}

// RedirectPayload is the body of MsgRedirect: the program the frame was
// for, the node that owns it under the server's placement, and that
// placement in full so one redirect is enough to re-route every program.
type RedirectPayload struct {
	ProgramID string            `json:"programId"`
	Owner     string            `json:"owner"`
	Placement *PlacementPayload `json:"placement,omitempty"`
}

// RedirectError is the typed client-side form of MsgRedirect: the
// submission was not applied because this server does not own the program.
// Callers (the Router, or operators reading retry-exhausted errors) use
// Owner and Version to distinguish "owner moved" from "owner down".
type RedirectError struct {
	ProgramID string
	Owner     string
	Version   uint64
	Placement *PlacementPayload
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("wire: program %s is owned by %s (placement v%d)", e.ProgramID, e.Owner, e.Version)
}

// BusyPayload is the body of MsgBusy: how long the client should wait
// before resubmitting the frame, and why it was declined (rate limit,
// queue pressure, or a hive shed reason — diagnostics, not protocol).
type BusyPayload struct {
	RetryAfterMs int64  `json:"retryAfterMs"`
	Reason       string `json:"reason,omitempty"`
}

// BusyError is the typed client-side form of MsgBusy: the submission was
// not applied; the server asks the client to back off and resubmit. The
// client's retry machinery honors RetryAfter as a floor under its
// jittered exponential backoff; the Router treats it as "owner alive but
// shedding" and does NOT re-poll seeds for a new placement.
type BusyError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *BusyError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("wire: server busy (retry after %v)", e.RetryAfter)
	}
	return fmt.Sprintf("wire: server busy (retry after %v): %s", e.RetryAfter, e.Reason)
}

// GetFixesPayload requests fixes.
type GetFixesPayload struct {
	ProgramID string `json:"programId"`
	Version   int    `json:"version"`
}

// FixesPayload returns fixes as raw JSON (fix.Fix marshals itself).
type FixesPayload struct {
	Fixes   []json.RawMessage `json:"fixes"`
	Version int               `json:"version"`
	Error   string            `json:"error,omitempty"`
}

// GetGuidancePayload requests steering test cases.
type GetGuidancePayload struct {
	ProgramID string `json:"programId"`
	Max       int    `json:"max"`
}

// GuidancePayload returns test cases.
type GuidancePayload struct {
	Cases []json.RawMessage `json:"cases"`
	Error string            `json:"error,omitempty"`
}

// ErrorPayload reports a server-side failure for unknown requests.
type ErrorPayload struct {
	Error string `json:"error"`
}

// encodeAckBin packs a binary ack.
func encodeAckBin(accepted int, dup bool, errMsg string) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+1+len(errMsg))
	buf = binary.AppendUvarint(buf, uint64(accepted))
	var flags byte
	if dup {
		flags |= 1
	}
	buf = append(buf, flags)
	return append(buf, errMsg...)
}

// decodeAckBin unpacks a binary ack.
func decodeAckBin(buf []byte) (accepted int, dup bool, errMsg string, err error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || len(buf) < sz+1 {
		return 0, false, "", fmt.Errorf("%w: binary ack", ErrFrame)
	}
	return int(n), buf[sz]&1 == 1, string(buf[sz+1:]), nil
}

// appendSeqPrefix writes the (session, seq) exactly-once tag that both
// submission frame flavors share.
func appendSeqPrefix(buf []byte, session string, seq uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(session)))
	buf = append(buf, session...)
	return binary.AppendUvarint(buf, seq)
}

// decodeSeqPrefix splits a sequenced payload into its tag and the rest.
func decodeSeqPrefix(buf []byte) (session string, seq uint64, rest []byte, err error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf[sz:])) {
		return "", 0, nil, fmt.Errorf("%w: session id", ErrFrame)
	}
	session = string(buf[sz : sz+int(n)])
	buf = buf[sz+int(n):]
	seq, sz = binary.Uvarint(buf)
	if sz <= 0 {
		return "", 0, nil, fmt.Errorf("%w: sequence number", ErrFrame)
	}
	return session, seq, buf[sz:], nil
}
