package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/wire"
)

// fleet: live pods run bug-planted programs against an in-memory hive on
// the cmd/pod cadence, plus guidance pulls (closed loop). Each goroutine's
// pods move to a fresh program every fleetEpochRuns runs, the way a fleet
// rolls out new releases, so tree growth, guidance solving, fix synthesis
// and fix distribution keep happening instead of dying out once one
// program's tree is complete.
const (
	fleetPodsPerClient = 16
	fleetSyncEvery     = 25 // cmd/pod -sync default
	fleetDrainEvery    = 50 // cmd/pod -drain default
	// cmd/pod never pulls guidance, so the guidance cadence is an
	// assumption: one pull per simulated user day, taking the 10 runs a
	// day of the E5–E8 population (MeanRunsPerDay) as a day, and at most
	// 4 cases per pull, the request size of E12 and the wire tests.
	fleetGuideEvery = 10
	fleetGuideMax   = 4
	// fleetEpochRuns is how many natural runs a goroutine's pods make on
	// one program before moving to the next.
	fleetEpochRuns = 6000
	// fleetPrograms is the corpus size; goroutine g runs programs g,
	// g+clients, ... and wraps to already-mature trees only past it.
	fleetPrograms = 256
	// fleetExportPrograms is how many programs the post-run re-home
	// exports: the first epochs of both goroutines.
	fleetExportPrograms = 16
	// fleetHeapEpochs bounds the work peak_heap_mb covers: the peak live
	// heap until every goroutine has finished this many epochs, the same
	// programs the re-home exports. The hive keeps every tree it built,
	// so the peak over the whole run tracked how far the run got (slower
	// runs read lower) rather than what the work costs.
	fleetHeapEpochs = fleetExportPrograms / clients
)

type fleetPod struct {
	id   string
	seed uint64
	user *population.User
	pd   *pod.Pod
	buf  *pod.BufferedClient
	prog *prog.Program
	runs int
}

// fleetClient is one load goroutine: a wire client shared by its pods.
type fleetClient struct {
	backend  pod.HiveClient
	pods     []*fleetPod
	epoch    int
	runs     int   // natural runs in the current epoch
	uploaded int64 // traces uploaded by pods of earlier epochs
	curOp    int64 // the operation client-side spans belong to
}

type fleetRig struct {
	progs   []*prog.Program
	h       *hive.Hive
	srv     *server
	conns   []*wire.Client
	clients []*fleetClient
	domain  int64
	frames  frameCounter // sealed by every pod's drains
}

func buildFleet(cfg config, tr *tracer, lat *samples) (*fleetRig, error) {
	progs := make([]*prog.Program, fleetPrograms)
	for i := range progs {
		p, _, err := proggen.Generate(proggen.CorpusSpec(corpusSeed, i))
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	h, err := newHive(progs)
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{progs: progs, h: h}
	if rig.srv, err = serve(h, tr, cfg); err != nil {
		return nil, err
	}
	pop, err := population.New(population.Config{Seed: cfg.seed, Users: clients * fleetPodsPerClient})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.domain = pop.Domain()
	for g := 0; g < clients; g++ {
		c := wire.Dial(rig.srv.addr)
		rig.conns = append(rig.conns, c)
		start := tr.now()
		err := c.Handshake()
		tr.end("wire.hello", start, tr.newOp(), "", 0)
		if err != nil {
			rig.close()
			return nil, err
		}
		fc := &fleetClient{}
		fc.backend = &tracedClient{c: c, tr: tr, cnt: &rig.frames, lat: lat, op: &fc.curOp}
		for k := 0; k < fleetPodsPerClient; k++ {
			u := g*fleetPodsPerClient + k
			fc.pods = append(fc.pods, &fleetPod{
				id:   fmt.Sprintf("pod-%d-%d", g, k),
				seed: cfg.seed*7919 + uint64(u) + 1,
				user: pop.Users()[u],
			})
		}
		if err := rig.startEpoch(g, fc); err != nil {
			rig.close()
			return nil, err
		}
		rig.clients = append(rig.clients, fc)
	}
	return rig, nil
}

func (r *fleetRig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	if r.srv != nil {
		r.srv.srv.Close()
		r.srv = nil
	}
}

// startEpoch points every pod of client g at the epoch's program with a
// fresh pod runtime and upload buffer (the user and its inputs carry on).
func (r *fleetRig) startEpoch(g int, fc *fleetClient) error {
	p := r.progs[(g+clients*fc.epoch)%len(r.progs)]
	for _, fp := range fc.pods {
		fp.buf = pod.NewBufferedFor(fc.backend, p.ID)
		pd, err := pod.New(pod.Config{
			Program:  p,
			ID:       fp.id,
			Hive:     fp.buf,
			Salt:     salt,
			Seed:     fp.seed + uint64(fc.epoch)<<20,
			Syscalls: fp.user.Syscalls(),
		})
		if err != nil {
			return err
		}
		fp.pd, fp.prog, fp.runs = pd, p, 0
	}
	fc.runs = 0
	return nil
}

// endEpoch drains every pod and moves client g to its next program.
func (r *fleetRig) endEpoch(g int, fc *fleetClient) error {
	for _, fp := range fc.pods {
		if err := fp.flushDrain(); err != nil {
			return err
		}
		fc.uploaded += fp.pd.Stats().TracesUploaded
	}
	fc.epoch++
	return r.startEpoch(g, fc)
}

// flushDrain uploads a pod's pending traces and drains its buffer, as
// cmd/pod does every fleetDrainEvery runs.
func (fp *fleetPod) flushDrain() error {
	if err := fp.pd.Flush(); err != nil {
		return err
	}
	return fp.buf.Drain()
}

type fleetCounts struct {
	attempted, failed, runs, natural, steps int64
}

// step runs one pod iteration on the cmd/pod cadence: a natural run, and
// when due a fix sync, a drain, and a guidance pull whose cases run. The
// pull's round trip is timed by the pod's tracedClient.
func (r *fleetRig) step(tr *tracer, fc *fleetClient, fp *fleetPod, res *runResult, counts *fleetCounts) {
	start := tr.now()
	out, err := fp.pd.RunOnce(fp.user.NextInput(fp.prog.NumInputs, r.domain))
	tr.end("pod.run", start, 0, "", out.Steps)
	counts.attempted++
	if err != nil {
		counts.failed++
		res.noteErr(err)
		return
	}
	counts.runs++
	counts.natural++
	counts.steps += out.Steps
	res.done(1)
	fp.runs++
	fc.runs++
	if fp.runs%fleetSyncEvery == 0 {
		fc.curOp = tr.newOp()
		start := tr.now()
		err := fp.pd.SyncFixes()
		tr.end("pod.syncfixes", start, fc.curOp, "", 0)
		counts.attempted++
		if err != nil {
			counts.failed++
			res.noteErr(err)
		}
	}
	if fp.runs%fleetDrainEvery == 0 {
		fc.curOp = tr.newOp()
		start := tr.now()
		err := fp.flushDrain()
		tr.end("op.drain", start, fc.curOp, "", 0)
		counts.attempted++
		if err != nil {
			counts.failed++
			res.noteErr(err)
		}
	}
	if fp.runs%fleetGuideEvery == 0 {
		fc.curOp = tr.newOp()
		start := tr.now()
		n, err := fp.pd.PullGuidance(fleetGuideMax)
		tr.end("pod.pullguidance", start, fc.curOp, "", int64(n))
		counts.attempted++
		if err != nil {
			counts.failed++
			res.noteErr(err)
			return
		}
		counts.runs += int64(n)
		res.done(int64(n))
	}
}

func runFleet(cfg config, tr *tracer) (*runResult, error) {
	r := newRunResult()
	rig, err := buildTimed(r, func(int) (*fleetRig, error) {
		return buildFleet(cfg, tr, &r.lat)
	})
	if err != nil {
		return nil, fmt.Errorf("fleet setup: %w", err)
	}
	defer rig.close()

	r.beginTimed(tr, rig.srv, cfg.duration())
	deadline := r.start.Add(cfg.duration())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total fleetCounts
	var heapDone atomic.Int32 // goroutines past fleetHeapEpochs
	var heapPeak atomic.Uint64
	for g, fc := range rig.clients {
		wg.Add(1)
		go func(g int, fc *fleetClient) {
			defer wg.Done()
			var c fleetCounts
			for k := 0; time.Now().Before(deadline); k++ {
				rig.step(tr, fc, fc.pods[k%len(fc.pods)], r, &c)
				if fc.runs >= fleetEpochRuns {
					c.attempted++
					if err := rig.endEpoch(g, fc); err != nil {
						c.failed++
					}
					if fc.epoch == fleetHeapEpochs && heapDone.Add(1) == clients {
						heapPeak.Store(r.sampler.peakNow())
					}
				}
				// Pods are separate processes in a real fleet; here they
				// share two processors with the hive, so each pod
				// iteration yields rather than holding a processor for a
				// whole scheduler time slice while a reply waits.
				runtime.Gosched()
			}
			mu.Lock()
			total.attempted += c.attempted
			total.failed += c.failed
			total.runs += c.runs
			total.natural += c.natural
			total.steps += c.steps
			mu.Unlock()
		}(g, fc)
	}
	wg.Wait()
	r.endTimed(tr, rig.srv)
	if p := heapPeak.Load(); p > 0 {
		r.peakHeap = p
	} else {
		r.warn("run ended before every client finished %d epochs: peak_heap_mb covers the whole run", fleetHeapEpochs)
	}
	r.ops = float64(total.runs)
	r.attempted, r.failed = total.attempted, total.failed
	r.frames.bytes.Store(rig.frames.bytes.Load())
	r.frames.traces.Store(rig.frames.traces.Load())
	if total.natural > 0 {
		r.layer["prog.steps_per_run"] = float64(total.steps) / float64(total.natural)
	}
	epochs := 0
	for _, fc := range rig.clients {
		epochs += fc.epoch + 1
	}
	r.layer["fleet.epochs"] = float64(epochs)

	// Gate: after a final drain and sync, the hive holds every uploaded
	// trace, has minted a fix, and every pod runs the hive's fix version.
	var uploaded int64
	for _, fc := range rig.clients {
		uploaded += fc.uploaded
		for _, fp := range fc.pods {
			if err := fp.flushDrain(); err != nil {
				r.miss("final drain: %v", err)
			}
			uploaded += fp.pd.Stats().TracesUploaded
		}
	}
	// Sync only after every drain: one pod's drain can mint a fix for a
	// program its sibling pods have already synced.
	for _, fc := range rig.clients {
		for _, fp := range fc.pods {
			if err := fp.pd.SyncFixes(); err != nil {
				r.miss("final sync: %v", err)
			}
		}
	}
	h := rig.h
	n, err := totalIngested(h)
	if err != nil || n != uploaded {
		r.miss("hive ingested %d traces, pods uploaded %d (%v)", n, uploaded, err)
	}
	r.acked = n
	for _, fc := range rig.clients {
		for _, fp := range fc.pods {
			_, v, err := h.FixesSince(fp.prog.ID, 0)
			if got := fp.pd.Stats().FixVersion; err != nil || got != v {
				r.miss("%s on %.12s at fix version %d, hive at %d (%v)", fp.id, fp.prog.ID, got, v, err)
			}
		}
	}
	r.collectHive(h)
	if r.layer["fix.minted"] < 1 {
		r.miss("no fix minted")
	}
	if err := r.finishExport(h, rig.progs); err != nil {
		return nil, err
	}
	return r, nil
}

// finishExport is the in-memory hive's counterpart of kill-and-recover:
// the first fleetExportPrograms programs — the epochs every run completes,
// so the state does not grow with how far a run got — are exported as
// snapshots (their persisted form when re-homed) and imported into fresh
// hives; the rebuilt programs must match.
func (r *runResult) finishExport(h *hive.Hive, progs []*prog.Program) error {
	all, sessions, err := hiveState(h)
	if err != nil {
		return err
	}
	r.layer["hive.sessions"] = float64(sessions)
	want := make(map[string]programState, fleetExportPrograms)
	var blobs [][]byte
	for _, p := range progs[:fleetExportPrograms] {
		want[p.ID] = all[p.ID]
		snap, err := h.ExportProgram(p.ID)
		if err != nil {
			return err
		}
		b, err := journal.EncodeSnapshot(snap)
		if err != nil {
			return err
		}
		blobs = append(blobs, b)
		r.stateBytes += int64(len(b))
	}
	for i := 0; i < recoverCycles; i++ {
		fresh, err := newHive(progs)
		if err != nil {
			return err
		}
		time.Sleep(recoverGap)
		runtime.GC()
		t0 := time.Now()
		for _, b := range blobs {
			snap, err := journal.DecodeSnapshot(b)
			if err != nil {
				return err
			}
			if err := fresh.ImportProgram(snap); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		r.recoverS = append(r.recoverS, d.Seconds())
		r.hiveRecoverMS = append(r.hiveRecoverMS, float64(d)/1e6)
		got, gotSessions, err := hiveState(fresh)
		if err == nil {
			for id := range got {
				if _, ok := want[id]; !ok {
					delete(got, id)
				}
			}
			err = sameState(want, got)
		}
		if err == nil && gotSessions != sessions {
			err = fmt.Errorf("%d sessions, want %d", gotSessions, sessions)
		}
		if err != nil {
			r.miss("import cycle %d: %v", i, err)
		}
	}
	return nil
}
