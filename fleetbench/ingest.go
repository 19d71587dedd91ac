package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ingest: two long-lived wire clients replay pre-captured traces into a
// durable hive as fast as it acks them (closed loop).
const (
	ingestPodsPerProgram = 2
	ingestRunsPerPod     = 512
	// ingestDrainFrames is how many 256-trace frames one drain seals.
	ingestDrainFrames = 2
	// ingestCheckpointEvery is the checkpoint cadence in acked traces.
	ingestCheckpointEvery = 1 << 20
	// ingestTailDrains per client follow the final compaction: the
	// journal suffix (8192 traces) recovery replays.
	ingestTailDrains = 8
)

type ingestRig struct {
	progs   []*prog.Program
	streams [][]*stream
	d       *durableHive
	srv     *server
	clients []*wire.Client
}

func buildIngest(cfg config, tr *tracer, dir string) (*ingestRig, error) {
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	streams, err := precaptureStreams(progs, cfg.seed, ingestPodsPerProgram, ingestRunsPerPod)
	if err != nil {
		return nil, err
	}
	d, err := openDurable(dir, progs, tr)
	if err != nil {
		return nil, err
	}
	rig := &ingestRig{progs: progs, streams: streams, d: d}
	if rig.srv, err = serve(d.h, tr, cfg); err != nil {
		rig.close()
		return nil, err
	}
	for g := 0; g < clients; g++ {
		c := wire.Dial(rig.srv.addr)
		rig.clients = append(rig.clients, c)
		start := tr.now()
		err := c.Handshake()
		tr.end("wire.hello", start, tr.newOp(), "", 0)
		if err != nil {
			rig.close()
			return nil, err
		}
	}
	return rig, nil
}

// kill stops serving and closes the journal without a checkpoint.
func (r *ingestRig) kill() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
	if r.srv != nil {
		r.srv.srv.Close()
		r.srv = nil
	}
	if r.d != nil {
		r.d.store.Close()
	}
}

func (r *ingestRig) close() {
	r.kill()
	if r.d != nil {
		os.RemoveAll(r.d.dir)
		r.d = nil
	}
}

// drain seals and submits one drain from s the way BufferedClient.Drain
// does, returning the traces acked.
func drain(tr *tracer, c *wire.Client, cnt *frameCounter, s *stream, frames int) (acked int64, lat time.Duration, err error) {
	chunks := make([][]*trace.Trace, frames)
	for i := range chunks {
		chunks[i] = s.take(frameTraces)
	}
	op := tr.newOp()
	opStart := tr.now()
	t0 := time.Now()
	sealed := sealTraced(tr, op, c, cnt, s.programID, chunks)
	acc, err := submitTraced(tr, op, c, sealed)
	lat = time.Since(t0)
	tr.end("op.drain", opStart, op, "", int64(frames*frameTraces))
	for i, ok := range acc {
		if ok {
			acked += int64(sealed[i].Count)
		}
	}
	if err == nil && acked != int64(frames*frameTraces) {
		err = fmt.Errorf("drain acked %d of %d traces", acked, frames*frameTraces)
	}
	return acked, lat, err
}

func runIngest(cfg config, tr *tracer) (*runResult, error) {
	r := newRunResult()
	rig, err := buildTimed(r, func(i int) (*ingestRig, error) {
		return buildIngest(cfg, tr, filepath.Join(cfg.dataRoot, fmt.Sprintf("ingest-%d", i)))
	})
	if err != nil {
		return nil, fmt.Errorf("ingest setup: %w", err)
	}
	defer rig.close()

	r.beginTimed(tr, rig.srv, cfg.duration())
	ckpt := startCheckpointer(rig.d.h, ingestCheckpointEvery, tr)
	deadline := r.start.Add(cfg.duration())
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var attempted, failed, acked int64
			streams := rig.streams[g]
			for k := 0; time.Now().Before(deadline); k++ {
				n, lat, err := drain(tr, rig.clients[g], &r.frames, streams[k%len(streams)], ingestDrainFrames)
				attempted++
				acked += n
				ckpt.add(n)
				if err != nil {
					failed++
					r.noteErr(err)
					continue
				}
				r.done(n)
				r.lat.addDur(lat, time.Millisecond)
			}
			mu.Lock()
			r.attempted += attempted
			r.failed += failed
			r.acked += acked
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	r.endTimed(tr, rig.srv)
	r.ops = float64(r.acked)
	if err := ckpt.stop(); err != nil {
		r.miss("checkpoint: %v", err)
	}
	r.checkpointMS = ckpt.durs.sorted()

	// Gate: every acked trace was applied exactly once.
	h := rig.d.h
	if n, err := totalIngested(h); err != nil || n != r.acked {
		r.miss("ingested %d traces, acked %d (%v)", n, r.acked, err)
	}
	if d := r.layer["hive.dup_acks"]; d != 0 {
		r.miss("%v duplicate acks on a clean run", d)
	}
	r.collectHive(h)

	// Final state: a compacting checkpoint between two fixed tails of
	// drains. The first makes every program non-quiescent so none skips
	// the compaction; the second is the journal suffix recovery replays.
	tail := func() {
		for g := 0; g < clients; g++ {
			for k := 0; k < ingestTailDrains; k++ {
				s := rig.streams[g][k%len(rig.streams[g])]
				n, _, err := drain(nil, rig.clients[g], new(frameCounter), s, ingestDrainFrames)
				r.acked += n
				if err != nil {
					r.miss("tail drain: %v", err)
				}
			}
		}
	}
	tail()
	r.finalCompaction(rig.d)
	tail()
	if err := r.finishDurable(rig.d, rig.progs, tr, nil, rig.kill); err != nil {
		return nil, err
	}
	return r, nil
}

// finalCompaction writes one full snapshot of every program, so recovery
// reads the same shape of data dir on every run, and records its size as
// the run's state. The hive skips programs with nothing new since their
// last checkpoint, so callers submit to every program first.
func (r *runResult) finalCompaction(d *durableHive) {
	d.h.SetCompactEvery(0)
	if err := d.h.Checkpoint(); err != nil {
		r.miss("final checkpoint: %v", err)
	}
	n, err := d.store.DiskUsage()
	if err != nil {
		r.miss("data dir size: %v", err)
	}
	r.stateBytes = n
}

// finishDurable records the final data dir, kills the hive without a
// checkpoint, and runs the kill-and-recover cycles. resubmit, when set, is
// an already-acked sealed frame replayed after the first recovery: it must
// be acked without being applied again.
func (r *runResult) finishDurable(d *durableHive, progs []*prog.Program, tr *tracer, resubmit *pod.SealedBatch, kill func()) error {
	want, sessions, err := hiveState(d.h)
	if err != nil {
		return err
	}
	if n, err := totalIngested(d.h); err != nil || n != r.acked {
		r.miss("before kill: ingested %d traces, acked %d (%v)", n, r.acked, err)
	}
	r.layer["hive.sessions"] = float64(sessions)
	disk, err := d.store.DiskUsage()
	if err != nil {
		return err
	}
	r.layer["journal.disk_bytes"] = float64(disk)
	kill()

	for i := 0; i < recoverCycles; i++ {
		time.Sleep(recoverGap)
		runtime.GC()
		tr.take()
		t0 := time.Now()
		store, err := journalOpen(d.dir, tr)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		t1 := time.Now()
		h, err := newHive(progs)
		if err != nil {
			store.Close()
			return err
		}
		t2 := time.Now()
		err = h.Recover(store)
		t3 := time.Now()
		if err != nil {
			store.Close()
			return fmt.Errorf("recover: %w", err)
		}
		r.recoverS = append(r.recoverS, (t1.Sub(t0) + t3.Sub(t2)).Seconds())
		r.openMS = append(r.openMS, float64(t1.Sub(t0))/1e6)
		r.hiveRecoverMS = append(r.hiveRecoverMS, float64(t3.Sub(t2))/1e6)
		var read int64
		for _, s := range tr.take() {
			if s.layer == "fs.read" {
				read += s.n
			}
		}
		r.readBytes = append(r.readBytes, float64(read))
		got, gotSessions, err := hiveState(h)
		if err == nil {
			err = sameState(want, got)
		}
		if err == nil && gotSessions != sessions {
			err = fmt.Errorf("%d sessions, want %d", gotSessions, sessions)
		}
		if err != nil {
			r.miss("recovery cycle %d: %v", i, err)
		}
		if i == 0 && resubmit != nil {
			if err := resubmitOnce(h, *resubmit); err != nil {
				r.miss("resubmit after recovery: %v", err)
			} else if got, _, err := hiveState(h); err != nil || sameState(want, got) != nil {
				r.miss("resubmitted frame was applied again")
			}
		}
		if err := store.Close(); err != nil {
			return err
		}
	}
	return nil
}

// resubmitOnce replays one sealed frame to the hive over a fresh server and
// client, requiring an ack.
func resubmitOnce(h pod.HiveClient, sb pod.SealedBatch) error {
	srv := wire.NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c := wire.Dial(addr)
	defer c.Close()
	acc, err := c.SubmitSealed([]pod.SealedBatch{sb})
	if err != nil {
		return err
	}
	if !acc[0] {
		return fmt.Errorf("not acked")
	}
	return nil
}
