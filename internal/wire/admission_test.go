package wire

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/leaktest"
	"repro/internal/pod"
	"repro/internal/trace"
)

// TestBackoffDelaySchedule pins the pure backoff schedule: exponential
// doubling from base, capped at ceil, floored at the server's hint, with
// proportional jitter on top. jitter=0 gives the deterministic schedule.
func TestBackoffDelaySchedule(t *testing.T) {
	base, ceil := 10*time.Millisecond, 100*time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 100, 100}
	for attempt, w := range want {
		if got := backoffDelay(base, ceil, attempt, 0, 0); got != w*time.Millisecond {
			t.Errorf("attempt %d: %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	// The server's retry-after hint floors the early attempts.
	if got := backoffDelay(base, ceil, 0, 60*time.Millisecond, 0); got != 60*time.Millisecond {
		t.Errorf("hinted attempt 0: %v, want 60ms", got)
	}
	if got := backoffDelay(base, ceil, 3, 60*time.Millisecond, 0); got != 80*time.Millisecond {
		t.Errorf("hinted attempt 3: %v, want 80ms (schedule above the floor)", got)
	}
	// Huge attempt counts clamp instead of overflowing the shift.
	if got := backoffDelay(base, ceil, 1000, 0, 0); got != ceil {
		t.Errorf("attempt 1000: %v, want ceil %v", got, ceil)
	}
	// Full jitter adds up to 50% of the chosen delay.
	if got := backoffDelay(base, ceil, 1, 0, 1); got != 30*time.Millisecond {
		t.Errorf("jittered attempt 1: %v, want 30ms", got)
	}
	// Zero-value knobs fall back to the package defaults.
	if got := backoffDelay(0, 0, 0, 0, 0); got != defaultRetryBase {
		t.Errorf("default attempt 0: %v, want %v", got, defaultRetryBase)
	}
}

// startAdmissionServer is startServer with an Admission config armed.
func startAdmissionServer(t *testing.T, cfg Admission) (*hive.Hive, *Server, string) {
	t.Helper()
	h := hive.New("fleet")
	srv := NewServer(h)
	srv.Logf = t.Logf
	srv.Admission = &cfg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return h, srv, addr
}

// TestBusyRateLimit drives a client through a tight session rate limit:
// every submission must eventually land (the busy reply is "not now",
// never "never"), the server must answer MsgBusy, and the client must
// retry on the same connection — one hello for the whole run, no
// reconnect storm.
func TestBusyRateLimit(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	// Burst must be pinned: left to default it becomes max(4*rate, 256)
	// and the whole test rides through for free.
	h, srv, addr := startAdmissionServer(t, Admission{SessionRate: 200, SessionBurst: 4})
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	client.RetryBase = time.Millisecond
	client.RetryCap = 50 * time.Millisecond
	defer client.Close()

	tr := captureWireTrace(t, p, "busy-pod", []int64{50})
	const frames = 30
	for i := 0; i < frames; i++ {
		if err := client.SubmitTraces([]*trace.Trace{tr.Clone()}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}

	st, err := h.ProgramStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != frames {
		t.Fatalf("ingested %d of %d admitted frames", st.Ingested, frames)
	}
	if as := srv.AdmissionStats(); as.BusyReplies == 0 {
		t.Fatal("rate limit never answered MsgBusy")
	}
	if got := client.HelloCount(); got != 1 {
		t.Fatalf("client ran %d hello exchanges; busy retries must reuse the connection", got)
	}
}

// TestRedialSaysHello: after a transport failure the client redials, and
// the new connection says hello before its first submission — so it gets
// the same busy replies (and frame grant, and redirects) as the first one
// instead of being treated as a connection that never said hello.
func TestRedialSaysHello(t *testing.T) {
	leaktest.Check(t)
	p := buildCrashy(t)
	h, srv, addr := startAdmissionServer(t, Admission{SessionRate: 200, SessionBurst: 4})
	if err := h.RegisterProgram(p); err != nil {
		t.Fatal(err)
	}
	client := Dial(addr)
	client.RetryBase = time.Millisecond
	client.RetryCap = 50 * time.Millisecond
	client.BusyRetries = 100 // 30 traces at 200/s take several busy rounds
	defer client.Close()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	// Drop the link under the client: its next write fails and it redials.
	client.mu.Lock()
	_ = client.conn.Close()
	client.mu.Unlock()

	tr := captureWireTrace(t, p, "redial-pod", []int64{50})
	batches := make([][]*trace.Trace, 30)
	for i := range batches {
		batches[i] = []*trace.Trace{tr.Clone()}
	}
	accepted, err := client.SubmitSealed(client.SealTraceBatches(p.ID, batches))
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("frame %d not acked", i)
		}
	}
	if st, _ := h.ProgramStats(p.ID); st.Ingested != int64(len(batches)) {
		t.Fatalf("ingested %d of %d frames", st.Ingested, len(batches))
	}
	if as := srv.AdmissionStats(); as.BusyReplies == 0 {
		t.Fatal("redialed connection was never told busy")
	}
	if got := client.HelloCount(); got != 2 {
		t.Fatalf("client ran %d hello exchanges, want 2 (one per connection)", got)
	}
}

// TestSlowLorisEvicted pins the progress-based deadline: a connection
// dribbling a started frame is evicted and counted, while a connection
// that is merely idle — no frame started — may sit far past the timeout
// and still complete a frame normally afterwards.
func TestSlowLorisEvicted(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{FrameTimeout: 50 * time.Millisecond}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The loris: one header byte, then silence.
	loris, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := loris.Write([]byte{0x00}); err != nil {
		t.Fatal(err)
	}
	_ = loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(loris); err == nil {
		t.Fatal("dribbling connection was answered instead of evicted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().SlowLorisEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eviction never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// The idler: no bytes at all for several timeouts, then a full valid
	// frame. The clock only starts at a frame's first byte.
	idler, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idler.Close()
	time.Sleep(200 * time.Millisecond)
	if err := WriteFrame(idler, MsgHello, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(idler); err != nil {
		t.Fatalf("idle-then-hello connection was evicted: %v", err)
	}
	if err := WriteFrame(idler, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(idler)
	if err != nil {
		t.Fatalf("idle-then-submit connection was evicted: %v", err)
	}
	if err := checkAck(respType, resp, 1); err != nil {
		t.Fatal(err)
	}
}

// TestConnCaps pins the accept-time hard caps: connections past MaxConns
// are closed before they cost a goroutine, and counted.
func TestConnCaps(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{MaxConns: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		// Complete one frame so the slot is provably serving, not racing
		// the accept loop.
		if err := WriteFrame(c, MsgHello, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrame(c); err != nil {
			t.Fatal(err)
		}
	}

	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err) // dial lands in the listen backlog regardless
	}
	defer over.Close()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(over); err == nil {
		t.Fatal("connection over MaxConns was served")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().ConnsRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejection never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHalfOpenCap pins the slow-loris slot budget: connections that have
// not completed one valid frame occupy MaxHalfOpen slots, and the flood
// past it is turned away while an established connection keeps working.
func TestHalfOpenCap(t *testing.T) {
	leaktest.Check(t)
	backend := &countingBackend{}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{MaxHalfOpen: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Establish one connection (completes a frame, leaves half-open state).
	good, err := dialHello(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// Flood with silent connections; past the cap they must be rejected.
	var idle []net.Conn
	defer func() {
		for _, c := range idle {
			_ = c.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().ConnsRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("half-open flood was never rejected")
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, c)
	}

	// The established connection is unaffected by the flood.
	if err := WriteFrame(good, MsgSubmitBatchColumnar, encodedBatch(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(good); err != nil {
		t.Fatalf("established connection starved by half-open flood: %v", err)
	}
}

// deferringBackend defers the first N session submissions with
// pod.ErrDeferred — a hive shedding low-rarity work — then admits.
type deferringBackend struct {
	remaining atomic.Int64
	calls     atomic.Int64
}

func (d *deferringBackend) SubmitColumnarSession(string, uint64, *trace.BatchView) (bool, error) {
	d.calls.Add(1)
	if d.remaining.Add(-1) >= 0 {
		return false, fmt.Errorf("stub hive shedding: %w", pod.ErrDeferred)
	}
	return false, nil
}
func (d *deferringBackend) SubmitTraces([]*trace.Trace) error              { return nil }
func (d *deferringBackend) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (d *deferringBackend) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// TestRoutedBusyBackoff pins the fleet-level busy discipline: when an
// owner defers (sheds) a batch, the Router backs off and resubmits to the
// SAME owner — it does not treat busy as a routing failure, so there is no
// seed re-poll and no hello storm. The deferral count is exact: one
// backend call per busy round plus the final admit.
func TestRoutedBusyBackoff(t *testing.T) {
	leaktest.Check(t)
	backend := &deferringBackend{}
	backend.remaining.Store(4)
	srv := NewServer(backend)
	srv.Logf = t.Logf
	srv.Admission = &Admission{RetryAfter: 2 * time.Millisecond}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := buildCrashy(t)
	r := NewRouter(addr)
	r.RetryBase = time.Millisecond
	r.RetryCap = 10 * time.Millisecond
	r.BusyRetries = 2
	defer r.Close()

	tr := captureWireTrace(t, p, "routed-pod", []int64{50})
	if err := r.SubmitTraces([]*trace.Trace{tr}); err != nil {
		t.Fatalf("submission through a shedding owner failed: %v", err)
	}

	// 4 deferrals + the admit: the client's busy rounds and the router's
	// extra paced attempt resubmitted the same sealed frame, nothing more.
	if got := backend.calls.Load(); got != 5 {
		t.Fatalf("backend saw %d calls, want 5 (4 deferrals + 1 admit)", got)
	}
	if got := srv.AdmissionStats().BusyReplies; got != 4 {
		t.Fatalf("server sent %d busy replies, want 4", got)
	}
	// Busy is not a routing signal: one owner client, one hello, no
	// placement re-poll.
	r.mu.Lock()
	nclients := len(r.clients)
	var hellos int
	for _, c := range r.clients {
		hellos += c.HelloCount()
	}
	r.mu.Unlock()
	if nclients != 1 || hellos != 1 {
		t.Fatalf("router dialed %d clients with %d hellos; busy must not trigger a seed re-poll", nclients, hellos)
	}

	// Contrast: a generic transport error DOES force a refresh.
	r.noteRoutingError(errors.New("connection reset by peer"))
	r.mu.Lock()
	hellos = 0
	for _, c := range r.clients {
		hellos += c.HelloCount()
	}
	r.mu.Unlock()
	if hellos < 2 {
		t.Fatalf("generic routing error did not re-poll seeds (hellos=%d)", hellos)
	}
}
