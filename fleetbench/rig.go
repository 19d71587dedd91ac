package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Fixed workload shape. The load comes from at most clients goroutines,
// each with at most one connection open at a time.
const (
	numPrograms = 4
	clients     = 2
	salt        = "fleet"
	// frameTraces is the per-frame batch pod.BufferedClient seals a drain
	// into.
	frameTraces = 256
	// setupReps is how many times a run builds its rig, setupGap apart;
	// setup_s is the median and the last build is the one measured. The
	// process's first ~0.2 s ran set-ups at half speed or worse (with
	// process CPU time equal to wall time), and a stretch of slow
	// processors can last the length of several back-to-back builds, so
	// the builds are spread over more than a second.
	setupReps = 15
	setupGap  = 100 * time.Millisecond
	// recoverCycles is how many kill-and-recover (or import) cycles run
	// after the timed phase, recoverGap apart. recover_s is the fastest:
	// within one run the cycles ranged over half again their minimum, as
	// collections landed in some and not others, and the host steals the
	// processors in bursts of seconds, so the cycles are spread over a few
	// seconds to give the fastest one a calm stretch.
	recoverCycles = 25
	recoverGap    = 100 * time.Millisecond
	// corpusSeed fixes the program corpus to cmd/hive's default (-seed 1).
	// The workload seed drives the user population and pod randomness
	// only: corpora drawn from different seeds differ in cost by up to 2x,
	// which would swamp every comparison between two commits.
	corpusSeed = 1
)

// buildTimed builds a rig setupReps times, setupGap apart and each from a
// freshly collected heap, records each build's time in r.setup, and
// returns the last build; the earlier ones are closed.
func buildTimed[R interface{ close() }](r *runResult, build func(i int) (R, error)) (R, error) {
	var rig R
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			rig.close()
		}
		time.Sleep(setupGap)
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = build(i); err != nil {
			return rig, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	return rig, nil
}

// corpus generates the bug-planted programs cmd/hive serves by default.
func corpus() ([]*prog.Program, error) {
	out := make([]*prog.Program, numPrograms)
	for i := range out {
		p, _, err := proggen.Generate(proggen.CorpusSpec(corpusSeed, i))
		if err != nil {
			return nil, fmt.Errorf("corpus %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

func newHive(progs []*prog.Program) (*hive.Hive, error) {
	h := hive.New(salt)
	for _, p := range progs {
		if err := h.RegisterProgram(p); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// journalOptions are cmd/hive's group-commit defaults (MaxBatch 256,
// window 0). Journal flushes are not fsynced: on the shared disks this
// benchmark runs on, one 4 KiB fsync measured anywhere from 0.35 to 22 ms
// between runs, which moved fsync-bound ingest throughput by half between
// identical runs. Every record is still written through the page cache,
// snapshots are still written atomically with their fsync, and recovery
// reads it all back; the report records one measured fsync. A traced run
// routes the journal through the timing FS.
func journalOptions(tr *tracer) journal.Options {
	o := journal.Options{Fsync: false, MaxBatch: 256}
	if tr != nil {
		o.FS = timingFS{inner: journal.OSFS(), tr: tr}
	}
	return o
}

func journalOpen(dir string, tr *tracer) (*journal.Store, error) {
	return journal.Open(dir, journalOptions(tr))
}

// server is a wire.Server on loopback in front of the hive (through the
// traced wrapper in traced runs).
type server struct {
	srv    *wire.Server
	addr   string
	traced *tracedHive
}

func serve(h *hive.Hive, tr *tracer, cfg config) (*server, error) {
	var backend pod.HiveClient = h
	if cfg.wrap != nil {
		backend = cfg.wrap(h)
	}
	var th *tracedHive
	if tr != nil {
		th = &tracedHive{inner: backend, tr: tr}
		backend = th
	}
	srv := wire.NewServer(backend)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, addr: addr, traced: th}, nil
}

// sink is a pod backend that keeps every trace a pod flushes: pre-capture
// runs real pods against it.
type sink struct{ traces []*trace.Trace }

func (s *sink) SubmitTraces(traces []*trace.Trace) error {
	s.traces = append(s.traces, traces...)
	return nil
}

func (s *sink) FixesSince(string, int) ([]fix.Fix, int, error)    { return nil, 0, nil }
func (s *sink) Guidance(string, int) ([]guidance.TestCase, error) { return nil, nil }

// stream is one pre-captured pod's traces, replayed cyclically. take
// re-stamps each handed-out trace with the next pod-local sequence number,
// so every frame's (program, pod, seq range) key is unique in a run. A
// stream belongs to one goroutine.
type stream struct {
	programID string
	traces    []*trace.Trace
	cursor    int
	nextSeq   uint64
}

func (s *stream) take(n int) []*trace.Trace {
	if s.cursor+n > len(s.traces) {
		s.cursor = 0
	}
	chunk := s.traces[s.cursor : s.cursor+n]
	s.cursor += n
	for _, tr := range chunk {
		tr.Seq = s.nextSeq
		s.nextSeq++
	}
	return chunk
}

// precapture runs a real pod on a population user's inputs and keeps its
// traces (post-privacy, exactly as a pod ships them).
func precapture(p *prog.Program, podID string, user *population.User, domain int64, runs int, seed uint64) (*stream, error) {
	s := &sink{}
	pd, err := pod.New(pod.Config{Program: p, ID: podID, Hive: s, Salt: salt, Seed: seed, Syscalls: user.Syscalls()})
	if err != nil {
		return nil, err
	}
	for r := 0; r < runs; r++ {
		if _, err := pd.RunOnce(user.NextInput(p.NumInputs, domain)); err != nil {
			return nil, err
		}
	}
	if err := pd.Flush(); err != nil {
		return nil, err
	}
	return &stream{programID: p.ID, traces: s.traces, nextSeq: uint64(len(s.traces))}, nil
}

// precaptureStreams builds perClient[g] = the streams goroutine g replays:
// podsPerProgram pods for each of the numPrograms programs, runs each.
func precaptureStreams(progs []*prog.Program, seed uint64, podsPerProgram, runs int) ([][]*stream, error) {
	users := clients * numPrograms * podsPerProgram
	pop, err := population.New(population.Config{Seed: seed, Users: users})
	if err != nil {
		return nil, err
	}
	out := make([][]*stream, clients)
	u := 0
	for g := 0; g < clients; g++ {
		for pi, p := range progs {
			for k := 0; k < podsPerProgram; k++ {
				id := fmt.Sprintf("pod-%d-%d-%d", g, pi, k)
				s, err := precapture(p, id, pop.Users()[u], pop.Domain(), runs, seed*7919+uint64(u)+1)
				if err != nil {
					return nil, err
				}
				out[g] = append(out[g], s)
				u++
			}
		}
	}
	return out, nil
}

// durableHive is a hive recovered from (and journaling to) a data dir.
type durableHive struct {
	dir   string
	store *journal.Store
	h     *hive.Hive
}

func openDurable(dir string, progs []*prog.Program, tr *tracer) (*durableHive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := journalOpen(dir, tr)
	if err != nil {
		return nil, err
	}
	h, err := newHive(progs)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := h.Recover(store); err != nil {
		store.Close()
		return nil, err
	}
	return &durableHive{dir: dir, store: store, h: h}, nil
}

// checkpointer checkpoints the hive in the background every fixed number
// of acked traces, so two commits do the same checkpoint work regardless
// of wall-clock speed.
type checkpointer struct {
	h     *hive.Hive
	every int64
	acked atomic.Int64
	kick  chan struct{}
	done  chan struct{}
	durs  samples // ms
	errMu sync.Mutex
	err   error
}

func startCheckpointer(h *hive.Hive, every int64, tr *tracer) *checkpointer {
	c := &checkpointer{h: h, every: every, kick: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for range c.kick {
			start := time.Now()
			span := tr.now()
			if err := h.Checkpoint(); err != nil {
				c.errMu.Lock()
				c.err = err
				c.errMu.Unlock()
			}
			tr.end("hive.checkpoint", span, 0, "", 0)
			c.durs.addDur(time.Since(start), time.Millisecond)
		}
	}()
	return c
}

// add counts n newly acked traces and kicks a checkpoint each time the
// total crosses a multiple of every. A kick that finds one pending
// coalesces with it.
func (c *checkpointer) add(n int64) {
	after := c.acked.Add(n)
	if (after-n)/c.every != after/c.every {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// stop waits for the last checkpoint; call once every add has returned.
func (c *checkpointer) stop() error {
	close(c.kick)
	<-c.done
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// programState is what a recovered hive must reproduce exactly.
type programState struct {
	Ingested int64
	Paths    int64
	Nodes    int64
	Fixes    int
	Failures int
}

func hiveState(h *hive.Hive) (map[string]programState, int, error) {
	out := make(map[string]programState)
	for _, id := range h.Programs() {
		st, err := h.ProgramStats(id)
		if err != nil {
			return nil, 0, err
		}
		out[id] = programState{st.Ingested, st.Tree.Paths, st.Tree.Nodes, st.FixCount, len(st.Failures)}
	}
	live, frozen := h.SessionCount()
	return out, live + frozen, nil
}

func sameState(a, b map[string]programState) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d programs, want %d", len(b), len(a))
	}
	for id, want := range a {
		if got := b[id]; got != want {
			return fmt.Errorf("program %.12s: %+v, want %+v", id, got, want)
		}
	}
	return nil
}

func totalIngested(h *hive.Hive) (int64, error) {
	var n int64
	for _, id := range h.Programs() {
		st, err := h.ProgramStats(id)
		if err != nil {
			return 0, err
		}
		n += st.Ingested
	}
	return n, nil
}

// treeTotals sums node and open-frontier counts over every program.
func treeTotals(h *hive.Hive) (nodes, frontiers int64, err error) {
	for _, id := range h.Programs() {
		t, err := h.Tree(id)
		if err != nil {
			return 0, 0, err
		}
		nodes += t.Stats().Nodes
		frontiers += int64(t.FrontierCount())
	}
	return nodes, frontiers, nil
}
