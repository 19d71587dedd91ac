// Package chaos is the adversarial fleet harness (PR 9, experiment E17):
// it boots a sharded hive fleet behind shaped links, drives it with
// hostile arrival curves (flash crowds, diurnal tides), hostile clients
// (slow-loris connection squatters, garbage-frame replayers), and
// pathological-tree programs, and measures what the overload protections
// actually deliver — ack latency percentiles, peak memory, coverage
// progress, and the shed/admission ledger. The package is a harness, not
// a simulation: real TCP, real wire servers, real hives.
package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hive"
	"repro/internal/netshape"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Scenario configures one adversarial fleet run. Zero values select
// small defaults; the zero Scenario is a mild, well-behaved fleet.
type Scenario struct {
	// Hives is the fleet size (default 3).
	Hives int
	// Programs is the corpus size (default 6); each program carries one
	// crash bug so first-sight failures can be injected on demand.
	Programs int
	// Seed drives program generation, trace pools, and batch composition;
	// equal seeds offer identical load.
	Seed uint64
	// Ticks is the run length in arrival-curve steps (default 16).
	Ticks int
	// BatchesPerTick is the per-program batch count at multiplier 1
	// (default 4); BatchSize is traces per batch (default 16).
	BatchesPerTick int
	BatchSize      int
	// Overload scales the whole arrival curve: 10 is the E17 "10× the
	// fleet's comfortable rate" regime (default 1).
	Overload float64
	// Arrival shapes demand over time (default Steady).
	Arrival Arrival
	// SlowLoris and Garbage are counts of concurrent hostile clients
	// aimed at hive 0 (the victim of choice).
	SlowLoris int
	Garbage   int
	// Pathological switches the corpus to deep, loopy programs whose
	// traces blow up the exec tree — pricing and merging get expensive
	// exactly when overload makes that hurt.
	Pathological bool
	// Net shapes every client<->hive link (zero = unshaped loopback).
	Net netshape.Config
	// Admission configures every hive's wire server (zero = unprotected).
	Admission wire.Admission
	// Shed installs rarity-priced load shedding on every hive (nil = off).
	Shed *hive.ShedPolicy
	// FirstSightFailures injects this many never-seen crash signatures at
	// the mid-run tick — the observations overload must not cost
	// (clamped to Programs).
	FirstSightFailures int
	// Workers is the submit concurrency (default 2×Hives).
	Workers int
}

// Result is what one scenario run measured.
type Result struct {
	// Submitted counts batch submissions offered; Failed counts the ones
	// whose final outcome was an error (busy exhaustion included).
	Submitted, Failed int64
	// BusyErrors counts submissions whose error chain surfaced MsgBusy —
	// load the fleet explicitly declined rather than absorbed.
	BusyErrors int64
	// P50 and P99 are ack-latency percentiles over every successful
	// submission, backoff waits included.
	P50, P99 time.Duration
	// PeakHeapBytes is the maximum live heap observed at any tick
	// boundary.
	PeakHeapBytes uint64
	// Coverage is the fleet-summed EdgesCovered after each tick — the
	// "degrades gracefully" series, which must stay monotone.
	Coverage []int
	// Shed and Admission aggregate every hive's ledgers.
	Shed      hive.ShedStats
	Admission wire.AdmissionStats
	// FirstSightLanded counts injected crash signatures that made it into
	// a failure table (must equal the injected count).
	FirstSightLanded int
}

// node is one fleet member.
type node struct {
	h     *hive.Hive
	srv   *wire.Server
	proxy *netshape.Proxy
}

// corpusProgram is a generated program plus its prepared load: a pool of
// passing traces (batches are sampled from it, so structural duplicates
// dominate — the shape shedding exists for) and one crash trace holding
// a signature the hive has never seen.
type corpusProgram struct {
	p     *prog.Program
	pool  []*trace.Trace
	crash *trace.Trace
}

// Run executes the scenario and reports what the fleet withstood. The
// first hard harness error (not per-batch overload errors — those are
// counted) aborts the run.
func Run(sc Scenario) (Result, error) {
	if sc.Hives <= 0 {
		sc.Hives = 3
	}
	if sc.Programs <= 0 {
		sc.Programs = 6
	}
	if sc.Ticks <= 0 {
		sc.Ticks = 16
	}
	if sc.BatchesPerTick <= 0 {
		sc.BatchesPerTick = 4
	}
	if sc.BatchSize <= 0 {
		sc.BatchSize = 16
	}
	if sc.Overload <= 0 {
		sc.Overload = 1
	}
	if sc.Arrival == nil {
		sc.Arrival = Steady()
	}
	if sc.Workers <= 0 {
		sc.Workers = 2 * sc.Hives
	}
	if sc.FirstSightFailures > sc.Programs {
		sc.FirstSightFailures = sc.Programs
	}

	corpus, err := buildCorpus(sc)
	if err != nil {
		return Result{}, err
	}

	nodes := make([]*node, sc.Hives)
	addrs := make([]string, sc.Hives)
	defer func() {
		for _, nd := range nodes {
			if nd == nil {
				continue
			}
			if nd.proxy != nil {
				_ = nd.proxy.Close()
			}
			_ = nd.srv.Close()
		}
	}()
	for i := range nodes {
		h := hive.New("fleet")
		h.Logf = func(string, ...any) {}
		if sc.Shed != nil {
			h.SetShedPolicy(sc.Shed)
		}
		for _, cp := range corpus {
			if err := h.RegisterProgram(cp.p); err != nil {
				return Result{}, err
			}
		}
		srv := wire.NewServer(h)
		srv.Logf = func(string, ...any) {}
		if sc.Admission != (wire.Admission{}) {
			adm := sc.Admission
			srv.Admission = &adm
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return Result{}, err
		}
		proxy, err := netshape.New(addr, sc.Net)
		if err != nil {
			_ = srv.Close()
			return Result{}, err
		}
		nodes[i] = &node{h: h, srv: srv, proxy: proxy}
		addrs[i] = proxy.Addr()
	}
	m := ring.New(addrs, ring.DefaultVNodes, 42)
	for i, nd := range nodes {
		nd.srv.SetPlacement(m, addrs[i])
	}

	router := wire.NewRouter(addrs...)
	router.RetryBase = 2 * time.Millisecond
	router.RetryCap = 250 * time.Millisecond
	defer router.Close()

	// Hostile clients aim at hive 0 through its shaped address.
	stop := make(chan struct{})
	var hostile sync.WaitGroup
	var hostileErr atomic.Pointer[error]
	loris := sc.Admission.FrameTimeout * 2
	if loris <= 0 {
		loris = 25 * time.Millisecond
	}
	for i := 0; i < sc.SlowLoris; i++ {
		hostile.Add(1)
		go func() {
			defer hostile.Done()
			if err := SlowLoris(addrs[0], loris, stop); err != nil {
				hostileErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	for i := 0; i < sc.Garbage; i++ {
		hostile.Add(1)
		go func(seed uint64) {
			defer hostile.Done()
			if err := Garbage(addrs[0], seed, stop); err != nil {
				hostileErr.CompareAndSwap(nil, &err)
			}
		}(sc.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
	}

	var res Result
	var mu sync.Mutex
	var lats []time.Duration
	// Workers submit pipelined groups — many frames in flight on the
	// owner's connection — which is what lets ingest queues (and so the
	// hive's pressure gauge) actually build when the fleet is offered more
	// than it can chew.
	type job struct {
		programID string
		batches   [][]*trace.Trace
	}
	work := make(chan job)
	var workers sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range work {
				t0 := time.Now()
				accepted, err := router.SubmitSealed(router.SealTraceBatches(j.programID, j.batches))
				lat := time.Since(t0)
				mu.Lock()
				res.Submitted += int64(len(j.batches))
				if err != nil {
					for _, ok := range accepted {
						if !ok {
							res.Failed++
						}
					}
					var be *wire.BusyError
					if errors.As(err, &be) {
						res.BusyErrors++
					}
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}()
	}

	rng := stats.NewRNG(sc.Seed ^ 0xc1a05)
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > res.PeakHeapBytes {
			res.PeakHeapBytes = ms.HeapAlloc
		}
	}
	sampleHeap()
	for tick := 0; tick < sc.Ticks; tick++ {
		mult := sc.Overload * sc.Arrival(tick, sc.Ticks)
		n := int(float64(sc.BatchesPerTick)*mult + 0.5)
		for _, cp := range corpus {
			for start := 0; start < n; start += 16 {
				cnt := n - start
				if cnt > 16 {
					cnt = 16
				}
				group := make([][]*trace.Trace, cnt)
				for b := range group {
					batch := make([]*trace.Trace, sc.BatchSize)
					for k := range batch {
						batch[k] = cp.pool[rng.Intn(len(cp.pool))]
					}
					group[b] = batch
				}
				work <- job{programID: cp.p.ID, batches: group}
			}
		}
		if tick == sc.Ticks/2 {
			// Mid-overload injection: each crash signature must land even
			// while the fleet sheds, so the harness retries the submission
			// itself until it is acknowledged.
			for i := 0; i < sc.FirstSightFailures; i++ {
				cp := corpus[i]
				var err error
				for attempt := 0; attempt < 20; attempt++ {
					if err = router.SubmitTraces([]*trace.Trace{cp.crash}); err == nil {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err != nil {
					close(work)
					workers.Wait()
					close(stop)
					hostile.Wait()
					return res, fmt.Errorf("chaos: first-sight crash for program %d never accepted: %w", i, err)
				}
			}
		}
		sampleHeap()
		res.Coverage = append(res.Coverage, fleetCoverage(nodes, corpus))
	}
	close(work)
	workers.Wait()
	sampleHeap()
	close(stop)
	hostile.Wait()
	if p := hostileErr.Load(); p != nil {
		return res, *p
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	for _, nd := range nodes {
		ss := nd.h.ShedStats()
		res.Shed.Admitted += ss.Admitted
		res.Shed.AdmittedFirstSight += ss.AdmittedFirstSight
		res.Shed.ShedDuplicate += ss.ShedDuplicate
		res.Shed.ShedCovered += ss.ShedCovered
		res.Shed.Deferred += ss.Deferred
		if ss.PeakPressure > res.Shed.PeakPressure {
			res.Shed.PeakPressure = ss.PeakPressure
		}
		as := nd.srv.AdmissionStats()
		res.Admission.BusyReplies += as.BusyReplies
		res.Admission.SlowLorisEvicted += as.SlowLorisEvicted
		res.Admission.ConnsRejected += as.ConnsRejected
		res.Admission.QueuedBytes += as.QueuedBytes
	}
	for i := 0; i < sc.FirstSightFailures; i++ {
		sig := corpus[i].crash.FailureSignature()
		for _, nd := range nodes {
			st, err := nd.h.ProgramStats(corpus[i].p.ID)
			if err != nil {
				continue
			}
			found := false
			for _, fr := range st.Failures {
				if fr.Signature == sig {
					found = true
					break
				}
			}
			if found {
				res.FirstSightLanded++
				break
			}
		}
	}
	return res, nil
}

// buildCorpus generates the programs and prepares each one's load.
func buildCorpus(sc Scenario) ([]*corpusProgram, error) {
	out := make([]*corpusProgram, sc.Programs)
	for i := range out {
		spec := proggen.Spec{
			Seed: sc.Seed + uint64(200+i), Depth: 4,
			Bugs:         []proggen.BugKind{proggen.BugCrash},
			TriggerWidth: 16,
		}
		if sc.Pathological {
			// Deep, loopy structure: long paths and wide trees make every
			// merge and every shed pricing walk expensive.
			spec.Depth, spec.Loops, spec.DetBranches = 7, 2, 12
		}
		p, bugs, err := proggen.Generate(spec)
		if err != nil {
			return nil, err
		}
		var bug proggen.Bug
		for _, b := range bugs {
			if b.Kind == proggen.BugCrash {
				bug = b
			}
		}
		cp := &corpusProgram{p: p}
		rng := stats.NewRNG(sc.Seed ^ uint64(i)*0x6a09e667f3bcc909)
		for len(cp.pool) < 24 {
			input := make([]int64, p.NumInputs)
			for k := range input {
				input[k] = rng.Int63n(256)
			}
			tr, err := runOnce(p, input, uint64(len(cp.pool)))
			if err != nil {
				return nil, err
			}
			if tr.Outcome.IsFailure() {
				continue // the pool is the benign background load
			}
			cp.pool = append(cp.pool, tr)
		}
		input := make([]int64, p.NumInputs)
		input[bug.Input] = bug.TriggerLo
		crash, err := runOnce(p, input, 9999)
		if err != nil {
			return nil, err
		}
		if !crash.Outcome.IsFailure() {
			return nil, fmt.Errorf("chaos: program %d trigger input did not crash", i)
		}
		cp.crash = crash
		out[i] = cp
	}
	return out, nil
}

// runOnce executes p under full capture and returns the trace.
func runOnce(p *prog.Program, input []int64, seq uint64) (*trace.Trace, error) {
	col := trace.NewCollector(p, trace.CaptureFull, 0, seq+1)
	m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
	if err != nil {
		return nil, err
	}
	res := m.Run()
	return col.Finish(fmt.Sprintf("chaos-pod-%d", seq%4), seq, res, input, trace.PrivacyHashed, "fleet"), nil
}

// fleetCoverage sums each program's best EdgesCovered across the fleet
// (only the owner's tree is nonzero under correct routing).
func fleetCoverage(nodes []*node, corpus []*corpusProgram) int {
	total := 0
	for _, cp := range corpus {
		best := 0
		for _, nd := range nodes {
			st, err := nd.h.ProgramStats(cp.p.ID)
			if err != nil {
				continue
			}
			if st.Tree.EdgesCovered > best {
				best = st.Tree.EdgesCovered
			}
		}
		total += best
	}
	return total
}
