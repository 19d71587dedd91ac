package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pod"
	"repro/internal/ring"
	"repro/internal/trace"
)

// ingestQueueDepth bounds the frames a connection may have queued between
// its reader and its worker. A client pipelining submissions keeps reading
// ahead of decoding up to this depth; beyond it the reader applies
// backpressure to that connection only — other connections have their own
// queues and keep ingesting.
const ingestQueueDepth = 64

// Server exposes a pod.HiveClient backend (normally *hive.Hive) over TCP.
// Submissions are columnar batches, so the backend must also implement
// pod.ColumnarSubmitter to ingest them; a backend that does not answers
// every submission with an error ack.
//
// Each connection is served by a two-stage pipeline: the connection
// goroutine only reads frames and hands them to a per-connection worker
// through a bounded queue; the worker decodes payloads, dispatches to the
// backend, and writes replies in request order (pipelined acks). Decoding
// and backend calls therefore overlap with socket reads, and a slow or
// blocked connection stalls only itself.
type Server struct {
	backend  pod.HiveClient
	columnar pod.ColumnarSubmitter // backend's ingest path; nil if absent
	ln       net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	// placeMu guards the sharding state: the placement map this hive is a
	// member of, its own node name within it, and the lazily dialed peer
	// clients used to proxy fix and guidance reads to their owner. All
	// nil/empty on an unsharded server.
	placeMu   sync.RWMutex
	placement *ring.Map
	selfNode  string
	proxies   map[string]*Client

	// Logf receives connection-level errors; defaults to log.Printf. Set it
	// before Serve.
	Logf func(format string, args ...any)

	// MaxFrame caps the frame-size raise hello grants (bounded by
	// MaxCoalescedFrameSize); zero means MaxCoalescedFrameSize. Grants
	// never go below MaxFrameSize.
	MaxFrame int

	// Admission, when non-nil, arms the overload protections: per-session
	// token-bucket rate limits answered with MsgBusy, per-connection queued-byte
	// backpressure feeding the backend's load-shedding pressure gauge,
	// progress-based slow-loris frame deadlines, and accept-time caps on
	// total / half-open connections. Set before Listen. Nil — the default —
	// costs one pointer check per frame, keeping the loopback fast path
	// unchanged.
	Admission *Admission

	// adm is the runtime admission state, built from Admission at Listen.
	adm *admissionState

	// readOnlyBusy counts submissions refused because the backend flipped a
	// program read-only after persistent journal write failures (disk full,
	// dying device). It lives on the Server — not admissionState — because
	// the read-only breaker is a durability condition, not an overload one:
	// it must be reported even when admission control is not configured.
	readOnlyBusy atomic.Int64
}

// connState is per-connection state shared between a connection's reader
// and its worker. limit is the frame-size limit: MaxFrameSize until a hello
// grants a raise. Atomic because the worker raises it while the reader
// loads it. hello records that the client said hello; submissions before
// it are refused.
type connState struct {
	limit atomic.Int64
	hello atomic.Bool

	// key is the admission bucket key for frames that carry no session:
	// the connection's remote address.
	key string

	// qMu/qCond/qBytes account the frame-payload bytes queued between this
	// connection's reader and its worker. The reader blocks past the
	// configured per-connection budget — byte-granular backpressure on top
	// of the frame-count queue depth. qMu is a leaf lock (rank 50 in the
	// lockdiscipline order); only touched when admission is configured.
	qMu    sync.Mutex
	qCond  *sync.Cond
	qBytes int64
}

// framePool recycles read-side frame payload buffers: a frame is read into
// a pooled buffer, queued to the connection worker, and recycled once its
// dispatch completes (handlers must not retain payload bytes — decoded
// traces and views copy or are consumed before return). The pool stores
// *[]byte boxes; the box travels with the request so recycling never
// re-boxes the slice header.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readFramePooled reads one frame like ReadFrame but into a pooled buffer.
// The returned box owns the payload; put it back into framePool when the
// frame is fully handled.
func readFramePooled(r io.Reader) (MsgType, *[]byte, error) {
	return readFramePooledStatic(r, MaxFrameSize)
}

// readFramePooledLimit is readFramePooled under a frame-size limit loaded
// only after the header arrives: a hello grant the worker stores while the
// reader is blocked on the next header applies to that very frame.
func readFramePooledLimit(r io.Reader, limit func() int) (MsgType, *[]byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	rawSize := binary.BigEndian.Uint32(hdr[:4])
	if rawSize == 0 || rawSize > uint32(limit()) {
		return 0, nil, fmt.Errorf("%w: size %d", ErrFrame, rawSize)
	}
	return readFrameBody(r, MsgType(hdr[4]), int(rawSize-1))
}

func readFramePooledStatic(r io.Reader, limit int) (MsgType, *[]byte, error) {
	t, size, err := readFrameHeaderLimit(r, limit)
	if err != nil {
		return 0, nil, err
	}
	return readFrameBody(r, t, size)
}

func readFrameBody(r io.Reader, t MsgType, size int) (MsgType, *[]byte, error) {
	bp := framePool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		framePool.Put(bp)
		return 0, nil, err
	}
	return t, bp, nil
}

// NewServer wraps backend.
func NewServer(backend pod.HiveClient) *Server {
	columnar, _ := backend.(pod.ColumnarSubmitter)
	return &Server{
		backend:  backend,
		columnar: columnar,
		conns:    make(map[net.Conn]bool),
		Logf:     log.Printf,
	}
}

// Listen binds the address ("127.0.0.1:0" for an ephemeral port) and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	if s.Admission != nil {
		s.adm = newAdmissionState(*s.Admission)
		if s.adm.cfg.TotalQueueBytes > 0 {
			// Hand the backend a live ingest-pressure gauge: the hive's
			// load-shedding watermark prices batches against it without the
			// hive ever reading clocks or queues itself.
			if sink, ok := s.backend.(pod.PressureSink); ok {
				sink.SetPressureSource(s.adm.pressure)
			}
		}
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// AdmissionStats snapshots the admission-control counters (zero value
// when no Admission config is armed).
func (s *Server) AdmissionStats() AdmissionStats {
	var st AdmissionStats
	if s.adm != nil {
		st = s.adm.stats()
	}
	// The read-only breaker reports even on servers without admission
	// control: it signals disk faults, not overload.
	st.ReadOnlyBusy = s.readOnlyBusy.Load()
	return st
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if a := s.adm; a != nil {
			// Hard caps are enforced at accept, before the connection costs
			// anything: a full house or a half-open flood (slow loris,
			// scanners) is turned away with a bare close.
			if (a.cfg.MaxConns > 0 && a.conns.Load() >= a.cfg.MaxConns) ||
				(a.cfg.MaxHalfOpen > 0 && a.halfOpen.Load() >= a.cfg.MaxHalfOpen) {
				a.connsRejected.Add(1)
				_ = conn.Close()
				continue
			}
			a.conns.Add(1)
			a.halfOpen.Add(1)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			if a := s.adm; a != nil {
				a.conns.Add(-1)
				a.halfOpen.Add(-1)
			}
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// SetPlacement installs (or replaces) the placement map this server is a
// member of; self is this hive's node name within it (the address peers
// and clients dial). From the next frame on, submissions for programs the
// map assigns elsewhere are answered MsgRedirect, fix and guidance reads
// for them are proxied to the owner, and hello acks advertise the map.
// Passing nil reverts to unsharded behavior. Safe to call while serving —
// a rebalance is exactly that.
func (s *Server) SetPlacement(m *ring.Map, self string) {
	s.placeMu.Lock()
	s.placement = m
	s.selfNode = self
	s.placeMu.Unlock()
}

// placementSnapshot reads the current sharding state.
func (s *Server) placementSnapshot() (*ring.Map, string) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	return s.placement, s.selfNode
}

// routeFor resolves a program's owner under the current placement.
// local is true when this server owns it — or when no placement is set,
// which is the unsharded fast path.
func (s *Server) routeFor(programID string) (owner string, local bool, pl *ring.Map) {
	pl, self := s.placementSnapshot()
	if pl == nil {
		return "", true, nil
	}
	owner = pl.Owner(programID)
	return owner, owner == "" || owner == self, pl
}

// placementPayload converts a ring.Map to its wire form.
func placementPayload(m *ring.Map) *PlacementPayload {
	if m == nil {
		return nil
	}
	return &PlacementPayload{Version: m.Version(), Nodes: m.Nodes(), VNodes: m.VNodes(), Seed: m.Seed()}
}

// placementFromPayload rebuilds the ring from its wire form.
func placementFromPayload(p *PlacementPayload) *ring.Map {
	if p == nil {
		return nil
	}
	return ring.NewVersion(p.Version, p.Nodes, p.VNodes, p.Seed)
}

// redirect answers a misdirected submission: the frame was not applied;
// the client owns resubmitting it — verbatim — to the named owner.
func (s *Server) redirect(w io.Writer, programID, owner string, pl *ring.Map) error {
	return s.reply(w, MsgRedirect, RedirectPayload{ProgramID: programID, Owner: owner, Placement: placementPayload(pl)})
}

// proxyClient returns (dialing lazily) the peer client for owner. Only
// reads are proxied, and reads are never redirected, so a chain of moved
// owners proxies onward.
func (s *Server) proxyClient(owner string) *Client {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	if s.proxies == nil {
		s.proxies = make(map[string]*Client)
	}
	pc, ok := s.proxies[owner]
	if !ok {
		pc = Dial(owner)
		s.proxies[owner] = pc
	}
	return pc
}

// proxyFrame relays one read frame verbatim to the owning hive and returns
// its reply.
func (s *Server) proxyFrame(owner string, t MsgType, payload []byte) (MsgType, []byte, error) {
	return s.proxyClient(owner).call(t, payload)
}

// Close stops the listener and all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.placeMu.Lock()
	proxies := s.proxies
	s.proxies = nil
	s.placeMu.Unlock()
	for _, pc := range proxies {
		_ = pc.Close()
	}
	s.wg.Wait()
	return err
}

// request is one frame in flight between a connection's reader and its
// worker. payload is a pooled buffer box; the worker recycles it after
// dispatch.
type request struct {
	msgType MsgType
	payload *[]byte
	// size is the frame payload size for queued-byte accounting; recorded
	// at enqueue because handlers may grow the pooled buffer.
	size int
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	adm := s.adm
	established := false
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		if adm != nil {
			adm.conns.Add(-1)
			if !established {
				adm.halfOpen.Add(-1)
			}
		}
	}()

	// Worker: decode, dispatch, reply — in request order, off the
	// connection goroutine. Replies coalesce through a buffered writer
	// that flushes whenever the queue runs dry (a pipelining client gets
	// its acks in bursts, not one syscall each). On a handler error the
	// worker closes the connection (unblocking the reader) and drains the
	// queue so the reader can never block on a send with no receiver.
	cs := &connState{key: conn.RemoteAddr().String()}
	cs.qCond = sync.NewCond(&cs.qMu)
	cs.limit.Store(MaxFrameSize)
	reqs := make(chan request, ingestQueueDepth)
	workerDone := make(chan struct{})
	// release returns a dispatched (or drained) frame's bytes to the queue
	// budget and wakes a reader parked on the per-connection cap. Every
	// path that consumes a request — normal dispatch, bail drain — must
	// release, or the pressure gauge sticks high after the burst passes.
	release := func(n int) {
		if adm == nil || n == 0 {
			return
		}
		adm.queued.Add(int64(-n))
		cs.qMu.Lock()
		cs.qBytes -= int64(n)
		cs.qCond.Signal()
		cs.qMu.Unlock()
	}
	go func() {
		defer close(workerDone)
		bw := bufio.NewWriterSize(conn, 32<<10)
		bail := func(what string, err error) {
			s.Logf("wire: %s for %s: %v", what, conn.RemoteAddr(), err)
			_ = conn.Close()
			for req := range reqs {
				framePool.Put(req.payload)
				release(req.size)
			}
		}
		for req := range reqs {
			var err error
			if req.msgType == MsgCoalesced {
				// Mega-frames answer through the connection itself: the
				// whole group of inner replies goes out as one writev.
				err = s.handleCoalesced(cs, conn, bw, *req.payload)
			} else {
				err = s.dispatch(cs, bw, req.msgType, *req.payload)
			}
			framePool.Put(req.payload)
			release(req.size)
			if err != nil {
				bail(fmt.Sprintf("handle %v", req.msgType), err)
				return
			}
			if len(reqs) == 0 {
				if err := bw.Flush(); err != nil {
					bail("flush", err)
					return
				}
			}
		}
		_ = bw.Flush()
	}()

	// Reader: the connection goroutine only reads frames; backpressure is
	// the bounded queue — frame-count always, queued bytes when admission
	// is configured. The frame limit is re-loaded per frame so a hello
	// grant applies from the very next frame on.
	for {
		if adm != nil && adm.cfg.ConnQueueBytes > 0 {
			cs.qMu.Lock()
			for cs.qBytes > adm.cfg.ConnQueueBytes {
				cs.qCond.Wait()
			}
			cs.qMu.Unlock()
		}
		msgType, payload, err := s.readConnFrame(conn, cs)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("wire: read from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		size := 0
		if adm != nil {
			if !established {
				// First complete, well-formed frame: the connection is no
				// longer half-open and stops occupying a slow-loris slot.
				established = true
				adm.halfOpen.Add(-1)
			}
			size = len(*payload)
			adm.queued.Add(int64(size))
			cs.qMu.Lock()
			cs.qBytes += int64(size)
			cs.qMu.Unlock()
		}
		reqs <- request{msgType: msgType, payload: payload, size: size}
	}
	close(reqs)
	<-workerDone
}

// readConnFrame reads one frame under the connection's granted size
// limit and, when a FrameTimeout is armed, a progress deadline: waiting
// for a frame to START is unbounded (an idle pod between drains is
// legal), but once the first header byte arrives the rest of the frame
// must land within the timeout. A peer dribbling a started frame — the
// slow loris — is evicted, freeing its worker and queue slot.
func (s *Server) readConnFrame(conn net.Conn, cs *connState) (MsgType, *[]byte, error) {
	limit := func() int { return int(cs.limit.Load()) }
	var timeout time.Duration
	if s.adm != nil {
		timeout = s.adm.cfg.FrameTimeout
	}
	if timeout <= 0 {
		return readFramePooledLimit(conn, limit)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:1]); err != nil {
		return 0, nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	if _, err := io.ReadFull(conn, hdr[1:]); err != nil {
		return 0, nil, s.slowLorisErr(err)
	}
	rawSize := binary.BigEndian.Uint32(hdr[:4])
	if rawSize == 0 || rawSize > uint32(limit()) {
		return 0, nil, fmt.Errorf("%w: size %d", ErrFrame, rawSize)
	}
	t, bp, err := readFrameBody(conn, MsgType(hdr[4]), int(rawSize-1))
	if err != nil {
		return 0, nil, s.slowLorisErr(err)
	}
	return t, bp, nil
}

// slowLorisErr annotates (and counts) a frame-progress deadline hit;
// other read errors pass through untouched.
func (s *Server) slowLorisErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.adm.slowEvicted.Add(1)
		return fmt.Errorf("wire: slow-loris eviction: frame stalled past %v: %w", s.adm.cfg.FrameTimeout, err)
	}
	return err
}

// admitBatch charges n traces against the session's (or, for unsessioned
// frames, the connection's) token bucket. Runs on the worker, so a busy
// reply lands in the exact reply slot the frame's ack would have used —
// pipelined clients keep matching acks by order. handled=true means the
// frame was answered (MsgBusy) and the handler must return err without
// touching the backend.
func (s *Server) admitBatch(cs *connState, w io.Writer, session string, n int) (handled bool, err error) {
	a := s.adm
	if a == nil || a.cfg.SessionRate <= 0 {
		return false, nil
	}
	key := session
	if key == "" {
		key = cs.key
	}
	wait, ok := a.debit(key, n, time.Now())
	if ok {
		return false, nil
	}
	a.busyReplies.Add(1)
	return true, s.reply(w, MsgBusy, BusyPayload{
		RetryAfterMs: int64(wait / time.Millisecond),
		Reason:       "session rate limit",
	})
}

// submit hands one admitted batch to the backend and answers it. The two
// refusals that mean "not now" map to MsgBusy — the frame stays unacked
// and the client resubmits it verbatim after backing off: pod.ErrDeferred
// (the hive's load shedder asking for the batch later) and pod.ErrReadOnly
// (the backend's journal breaker after persistent disk write failures;
// guidance reads are still served). Everything else is an ordinary ack.
func (s *Server) submit(w io.Writer, session string, seq uint64, view *trace.BatchView) error {
	if s.columnar == nil {
		return ackBin(w, 0, false, errors.New("wire: backend does not ingest columnar batches"))
	}
	dup, err := s.columnar.SubmitColumnarSession(session, seq, view)
	readOnly := errors.Is(err, pod.ErrReadOnly)
	if !readOnly && !errors.Is(err, pod.ErrDeferred) {
		return ackBin(w, view.Len(), dup, err)
	}
	hint := defaultRetryAfter
	if s.adm != nil {
		hint = s.adm.cfg.RetryAfter
	}
	if readOnly {
		s.readOnlyBusy.Add(1)
	} else if s.adm != nil {
		s.adm.busyReplies.Add(1)
	}
	return s.reply(w, MsgBusy, BusyPayload{
		RetryAfterMs: int64(hint / time.Millisecond),
		Reason:       err.Error(),
	})
}

// errNoHello answers a submission on a connection that has not said hello.
var errNoHello = errors.New("wire: submission before hello")

func (s *Server) dispatch(cs *connState, w io.Writer, msgType MsgType, payload []byte) error {
	switch msgType {
	case MsgHello:
		return s.handleHello(cs, w, payload)
	case MsgSubmitBatchColumnar, MsgSubmitBatchCompressed:
		if !cs.hello.Load() {
			return ackBin(w, 0, false, errNoHello)
		}
		return s.handleSubmit(cs, w, msgType, payload)
	case MsgGetFixes:
		return s.handleGetFixes(w, payload)
	case MsgGetGuidance:
		return s.handleGetGuidance(w, payload)
	}
	return s.reply(w, MsgError, ErrorPayload{Error: fmt.Sprintf("unknown message type %d", msgType)})
}

// handleHello opens the connection for submissions and answers with the
// frame-size grant — min(requested, cap), never below the default limit —
// and, on a ring member, the placement map. The grant is stored before the
// ack is written, so by the time the client can act on it the reader
// accepts the raised size.
func (s *Server) handleHello(cs *connState, w io.Writer, payload []byte) error {
	var req HelloPayload
	if err := json.Unmarshal(payload, &req); err != nil {
		return s.reply(w, MsgError, ErrorPayload{Error: err.Error()})
	}
	pl, _ := s.placementSnapshot()
	ack := HelloReplyPayload{Placement: placementPayload(pl)}
	if req.MaxFrame > MaxFrameSize {
		capBytes := s.MaxFrame
		if capBytes <= 0 || capBytes > MaxCoalescedFrameSize {
			capBytes = MaxCoalescedFrameSize
		}
		if capBytes < MaxFrameSize {
			capBytes = MaxFrameSize
		}
		granted := req.MaxFrame
		if granted > capBytes {
			granted = capBytes
		}
		if granted > MaxFrameSize {
			ack.MaxFrame = granted
			cs.limit.Store(int64(granted))
		}
	}
	cs.hello.Store(true)
	return s.reply(w, MsgHelloAck, ack)
}

// maxInnerFrames bounds the inner frames one mega-frame may carry: each
// inner frame produces an inner ack, so the bound keeps a hostile
// mega-frame of millions of tiny requests from amplifying into an
// unbounded reply buffer. Honest clients batch far below it.
const maxInnerFrames = 4096

// ackBuffer accumulates the inner reply frames of one coalesced group in
// memory so they can leave in a single writev.
type ackBuffer struct{ buf []byte }

func (a *ackBuffer) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// handleCoalesced dispatches every inner frame of a mega-frame exactly as
// if it had arrived alone, accumulating the inner replies, and answers
// with one MsgCoalesced written to the connection as a single writev
// (after flushing any buffered replies so request order is preserved). A
// malformed mega-frame gets a whole-frame MsgError instead; per-inner
// failures are ordinary inner acks and do not poison the group.
func (s *Server) handleCoalesced(cs *connState, conn net.Conn, bw *bufio.Writer, payload []byte) error {
	bp := framePool.Get().(*[]byte)
	acks := ackBuffer{buf: (*bp)[:0]}
	inner := 0
	err := forEachInner(payload, func(t MsgType, body []byte) error {
		if t == MsgCoalesced {
			return fmt.Errorf("%w: nested coalesced frame", ErrFrame)
		}
		if inner++; inner > maxInnerFrames {
			return fmt.Errorf("%w: more than %d inner frames", ErrFrame, maxInnerFrames)
		}
		return s.dispatch(cs, &acks, t, body)
	})
	if err != nil {
		*bp = acks.buf
		framePool.Put(bp)
		if errors.Is(err, ErrFrame) {
			return s.reply(bw, MsgError, ErrorPayload{Error: err.Error()})
		}
		return err
	}
	werr := bw.Flush()
	if werr == nil {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(acks.buf)+1))
		hdr[4] = byte(MsgCoalesced)
		vec := net.Buffers{hdr[:], acks.buf}
		_, werr = vec.WriteTo(conn)
	}
	*bp = acks.buf
	framePool.Put(bp)
	return werr
}

// handleSubmit ingests one sequenced columnar batch. A compressed frame's
// batch bytes are inflated first, bounded by MaxFrameSize post-inflate
// (decompression-bomb guard), so the backend — and with it the journal —
// sees only the canonical decompressed columnar payload, byte-identical to
// an uncompressed submission of the same batch. The view borrows the batch
// bytes and is released before return. On a sharded server a batch for a
// program owned elsewhere never reaches the backend: the client gets
// MsgRedirect and resubmits the frame to the owner.
func (s *Server) handleSubmit(cs *connState, w io.Writer, msgType MsgType, payload []byte) error {
	session, seq, batchBytes, err := decodeSeqPrefix(payload)
	if err != nil {
		return ackBin(w, 0, false, err)
	}
	if msgType == MsgSubmitBatchCompressed {
		raw, err := trace.DecompressSlab(batchBytes, MaxFrameSize)
		if err != nil {
			return ackBin(w, 0, false, err)
		}
		defer trace.ReleaseSlab(raw)
		batchBytes = *raw
	}
	view, err := trace.DecodeBatch(batchBytes)
	if err != nil {
		return ackBin(w, 0, false, err)
	}
	defer view.Release()
	if owner, local, pl := s.routeFor(view.ProgramID()); !local {
		return s.redirect(w, view.ProgramID(), owner, pl)
	}
	if handled, herr := s.admitBatch(cs, w, session, view.Len()); handled {
		return herr
	}
	return s.submit(w, session, seq, view)
}

// ackBin writes one binary acknowledgement.
func ackBin(w io.Writer, accepted int, dup bool, err error) error {
	msg := ""
	if err != nil {
		accepted, dup, msg = 0, false, err.Error()
	}
	return WriteFrame(w, MsgAckBin, encodeAckBin(accepted, dup, msg))
}

func (s *Server) handleGetFixes(w io.Writer, payload []byte) error {
	var req GetFixesPayload
	if err := json.Unmarshal(payload, &req); err != nil {
		return s.reply(w, MsgFixes, FixesPayload{Error: err.Error()})
	}
	// Reads proxy transparently: the reply is an ordinary MsgFixes either
	// way, so there is nothing for the client to learn from a redirect here.
	if owner, local, _ := s.routeFor(req.ProgramID); !local {
		respType, resp, perr := s.proxyFrame(owner, MsgGetFixes, payload)
		if perr != nil {
			return s.reply(w, MsgFixes, FixesPayload{Error: fmt.Sprintf("proxy to owner %s: %v", owner, perr)})
		}
		return WriteFrame(w, respType, resp)
	}
	fixes, version, err := s.backend.FixesSince(req.ProgramID, req.Version)
	if err != nil {
		return s.reply(w, MsgFixes, FixesPayload{Error: err.Error()})
	}
	out := FixesPayload{Version: version}
	for i := range fixes {
		raw, err := json.Marshal(&fixes[i])
		if err != nil {
			return s.reply(w, MsgFixes, FixesPayload{Error: err.Error()})
		}
		out.Fixes = append(out.Fixes, raw)
	}
	return s.reply(w, MsgFixes, out)
}

func (s *Server) handleGetGuidance(w io.Writer, payload []byte) error {
	var req GetGuidancePayload
	if err := json.Unmarshal(payload, &req); err != nil {
		return s.reply(w, MsgGuidance, GuidancePayload{Error: err.Error()})
	}
	if owner, local, _ := s.routeFor(req.ProgramID); !local {
		respType, resp, perr := s.proxyFrame(owner, MsgGetGuidance, payload)
		if perr != nil {
			return s.reply(w, MsgGuidance, GuidancePayload{Error: fmt.Sprintf("proxy to owner %s: %v", owner, perr)})
		}
		return WriteFrame(w, respType, resp)
	}
	cases, err := s.backend.Guidance(req.ProgramID, req.Max)
	if err != nil {
		return s.reply(w, MsgGuidance, GuidancePayload{Error: err.Error()})
	}
	out := GuidancePayload{}
	for i := range cases {
		raw, err := json.Marshal(&cases[i])
		if err != nil {
			return s.reply(w, MsgGuidance, GuidancePayload{Error: err.Error()})
		}
		out.Cases = append(out.Cases, raw)
	}
	return s.reply(w, MsgGuidance, out)
}

func (s *Server) reply(w io.Writer, t MsgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, t, payload)
}
