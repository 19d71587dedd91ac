package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/wire"
)

// churn: short-lived pods arrive on a fixed schedule (open loop). Each
// arrival dials a new client — a new session — says hello, seals and
// submits one small drain, and closes. The hive is durable.
const (
	churnPodsPerProgram = 2
	churnRunsPerPod     = 200
	// churnDrainTraces is one arrival's drain: cmd/pod's 50-run cadence.
	churnDrainTraces = 50
	// churnCheckpointEvery is the checkpoint cadence in acked traces.
	churnCheckpointEvery = 1 << 18
	// churnTailSessions arrive after the final compaction and form the
	// journal suffix recovery replays.
	churnTailSessions = 8
	// churnHistorySessions is the session history the hive has seen
	// before timing starts: past the hive's live-cache bound (4096), so
	// every arrival pays the steady-state dedup cost from the first second
	// instead of partway through the run.
	churnHistorySessions = 8192
	// churnRate is the fixed open-loop arrival rate per second: 42% of
	// the closed-loop session capacity measured on a two-vCPU box.
	churnRate = 600
)

type churnRig struct {
	progs   []*prog.Program
	streams [][]*stream // [worker][program*churnPodsPerProgram+k]
	d       *durableHive
	srv     *server
}

func buildChurn(cfg config, tr *tracer, dir string) (*churnRig, error) {
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	streams, err := precaptureStreams(progs, cfg.seed, churnPodsPerProgram, churnRunsPerPod)
	if err != nil {
		return nil, err
	}
	d, err := openDurable(dir, progs, tr)
	if err != nil {
		return nil, err
	}
	rig := &churnRig{progs: progs, streams: streams, d: d}
	if err := rig.history(); err != nil {
		rig.close()
		return nil, err
	}
	if rig.srv, err = serve(d.h, tr, cfg); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// history submits one single-trace frame from each of
// churnHistorySessions past sessions straight into the hive, then
// checkpoints, so the timed phase starts against a hive that has already
// seen that many sessions.
func (r *churnRig) history() error {
	var enc []byte
	for i := 0; i < churnHistorySessions; i++ {
		s := r.streams[i%clients][i%len(r.streams[0])]
		var err error
		if enc, err = trace.AppendBatch(enc[:0], s.programID, s.take(1)); err != nil {
			return err
		}
		view, err := trace.DecodeBatch(enc)
		if err != nil {
			return err
		}
		_, err = r.d.h.SubmitColumnarSession(fmt.Sprintf("history-%d", i), 1, view)
		view.Release()
		if err != nil {
			return err
		}
	}
	return r.d.h.Checkpoint()
}

func (r *churnRig) kill() {
	if r.srv != nil {
		r.srv.srv.Close()
		r.srv = nil
	}
	if r.d != nil {
		r.d.store.Close()
	}
}

func (r *churnRig) close() {
	r.kill()
	if r.d != nil {
		os.RemoveAll(r.d.dir)
		r.d = nil
	}
}

// session is one short-lived pod: dial, hello, seal and submit one drain,
// close. It returns the sealed frame so the run can replay one after
// recovery.
func session(tr *tracer, op int64, addr string, cnt *frameCounter, s *stream) (pod.SealedBatch, bool, error) {
	c := wire.Dial(addr)
	defer c.Close()
	start := tr.now()
	err := c.Handshake()
	tr.end("wire.hello", start, op, "", 0)
	if err != nil {
		return pod.SealedBatch{}, false, err
	}
	chunk := s.take(churnDrainTraces)
	sealed := sealTraced(tr, op, c, cnt, s.programID, [][]*trace.Trace{chunk})
	acc, err := submitTraced(tr, op, c, sealed)
	if err != nil {
		return sealed[0], false, err
	}
	return sealed[0], acc[0], nil
}

func runChurn(cfg config, tr *tracer) (*runResult, error) {
	r := newRunResult()
	rig, err := buildTimed(r, func(i int) (*churnRig, error) {
		return buildChurn(cfg, tr, filepath.Join(cfg.dataRoot, fmt.Sprintf("churn-%d", i)))
	})
	if err != nil {
		return nil, fmt.Errorf("churn setup: %w", err)
	}
	defer rig.close()

	r.acked = churnHistorySessions // one trace each
	r.beginTimed(tr, rig.srv, cfg.duration())
	ckpt := startCheckpointer(rig.d.h, churnCheckpointEvery, tr)
	interval := time.Second / churnRate
	total := int(cfg.duration() / interval)

	// At most `clients` sessions are in flight: one per worker. The
	// generator hands each arrival over when it is due; a busy pair of
	// workers makes it late. That wait is this harness's own queue — real
	// pods do not wait for each other — so latency runs from the moment a
	// worker dials, and the lateness is reported as gen.lag_p99_ms and
	// gen.backlog_end instead.
	arrivals := make(chan int) // arrival indices
	var wg sync.WaitGroup
	var mu sync.Mutex
	var saved *pod.SealedBatch
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var attempted, failed, acked int64
			streams := rig.streams[w]
			for i := range arrivals {
				op := tr.newOp()
				s := streams[i%len(streams)]
				opStart := tr.now()
				start := time.Now()
				sb, ok, err := session(tr, op, rig.srv.addr, &r.frames, s)
				done := time.Now()
				tr.end("op.session", opStart, op, "", int64(sb.Count))
				attempted++
				if err != nil || !ok {
					failed++
					r.noteErr(err)
					continue
				}
				acked += int64(sb.Count)
				ckpt.add(int64(sb.Count))
				r.done(1)
				r.lat.addDur(done.Sub(start), time.Millisecond)
				if i == 0 {
					mu.Lock()
					saved = &sb
					mu.Unlock()
				}
			}
			mu.Lock()
			r.attempted += attempted
			r.failed += failed
			r.acked += acked
			mu.Unlock()
		}(w)
	}
	var lag samples
	backlog := 0
	for i := 0; i < total; i++ {
		due := r.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Since(r.start) >= cfg.duration() {
			backlog = total - i
			break
		}
		arrivals <- i
		lag.addDur(time.Since(due), time.Millisecond)
	}
	close(arrivals)
	wg.Wait()
	r.endTimed(tr, rig.srv)
	r.ops = float64(r.attempted - r.failed)
	if err := ckpt.stop(); err != nil {
		r.miss("checkpoint: %v", err)
	}
	r.checkpointMS = ckpt.durs.sorted()
	r.layer["gen.lag_p99_ms"] = quantile(lag.sorted(), 0.99)
	r.layer["gen.backlog_end"] = float64(backlog)
	// An open loop that fell behind measured its own queue, not the
	// system: the run is invalid rather than slow.
	if limit := max(16, churnRate/4); backlog > limit {
		r.invalid = fmt.Sprintf("generator backlog %d arrivals at the end (limit %d)", backlog, limit)
	}

	h := rig.d.h
	if n, err := totalIngested(h); err != nil || n != r.acked {
		r.miss("ingested %d traces, acked %d (%v)", n, r.acked, err)
	}
	r.collectHive(h)
	if saved == nil {
		return nil, fmt.Errorf("churn: first arrival was not acked")
	}

	// A compacting checkpoint between two fixed tails of sessions: the
	// first makes every program non-quiescent so none skips the
	// compaction; the second is the journal suffix recovery replays.
	tail := func() {
		for i := 0; i < churnTailSessions; i++ {
			sb, ok, err := session(nil, 0, rig.srv.addr, new(frameCounter), rig.streams[0][i%len(rig.streams[0])])
			if err != nil || !ok {
				r.miss("tail session: %v", err)
				continue
			}
			r.acked += int64(sb.Count)
		}
	}
	tail()
	r.finalCompaction(rig.d)
	tail()
	if err := r.finishDurable(rig.d, rig.progs, tr, saved, rig.kill); err != nil {
		return nil, err
	}
	return r, nil
}
