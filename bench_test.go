package softborg

// One benchmark per experiment (E1–E11, see EXPERIMENTS.md): each runs the
// exact table-generating code from internal/experiments and reports the
// experiment's headline numbers as custom benchmark metrics, so
// `go test -bench=.` regenerates every figure/claim reproduction. The
// rendered tables themselves come from `go run ./cmd/softborg-bench`.
//
// The file also carries hot-path micro-benchmarks (VM interpretation, trace
// codec, tree merging, solving, wire round-trips) for -benchmem profiling.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exectree"
	"repro/internal/experiments"
	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/hive"
	"repro/internal/netshape"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/sat"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// runExperiment executes one experiment table per iteration and reports its
// metrics.
func runExperiment(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	for name, v := range last.Metrics {
		b.ReportMetric(v, name)
	}
}

func BenchmarkE1TreeMerge(b *testing.B)          { runExperiment(b, experiments.E1TreeMerge) }
func BenchmarkE2PopulationCoverage(b *testing.B) { runExperiment(b, experiments.E2PopulationCoverage) }
func BenchmarkE3SolverPortfolio(b *testing.B)    { runExperiment(b, experiments.E3SolverPortfolio) }
func BenchmarkE4GuidedCoverage(b *testing.B)     { runExperiment(b, experiments.E4GuidedCoverage) }
func BenchmarkE5DeadlockImmunity(b *testing.B)   { runExperiment(b, experiments.E5DeadlockImmunity) }
func BenchmarkE6BugDensity(b *testing.B)         { runExperiment(b, experiments.E6BugDensity) }
func BenchmarkE7CaptureOverhead(b *testing.B)    { runExperiment(b, experiments.E7CaptureOverhead) }
func BenchmarkE8DynamicPartitioning(b *testing.B) {
	runExperiment(b, experiments.E8DynamicPartitioning)
}
func BenchmarkE9CumulativeProofs(b *testing.B) { runExperiment(b, experiments.E9CumulativeProofs) }
func BenchmarkE10Privacy(b *testing.B)         { runExperiment(b, experiments.E10Privacy) }
func BenchmarkE11WireThroughput(b *testing.B)  { runExperiment(b, experiments.E11WireThroughput) }
func BenchmarkE12CrashRecovery(b *testing.B)   { runExperiment(b, experiments.E12CrashRecovery) }

// --- hot-path micro-benchmarks ---

func benchProgram(b *testing.B) *prog.Program {
	b.Helper()
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 77, Depth: 6, Loops: 2, Syscalls: 1, NumInputs: 2, DetBranches: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkVMExecution measures raw interpretation speed, uninstrumented.
func BenchmarkVMExecution(b *testing.B) {
	p := benchProgram(b)
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := prog.NewMachine(p, prog.Config{Input: []int64{rng.Int63n(256), rng.Int63n(256)}})
		if err != nil {
			b.Fatal(err)
		}
		steps += m.Run().Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

// BenchmarkVMExecutionInstrumented measures interpretation with full
// capture — the pod's steady-state cost.
func BenchmarkVMExecutionInstrumented(b *testing.B) {
	p := benchProgram(b)
	rng := stats.NewRNG(1)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Reset()
		input := []int64{rng.Int63n(256), rng.Int63n(256)}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		col.Finish("pod", uint64(i), res, input, trace.PrivacyHashed, "s")
	}
}

// BenchmarkTraceEncodeDecode measures the telemetry codec round trip.
func BenchmarkTraceEncodeDecode(b *testing.B) {
	p := benchProgram(b)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: []int64{42, 99}, Observer: col})
	if err != nil {
		b.Fatal(err)
	}
	res := m.Run()
	tr := col.Finish("pod", 0, res, []int64{42, 99}, trace.PrivacyHashed, "s")
	encoded := trace.Encode(tr)
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := trace.Encode(tr)
		if _, err := trace.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeMerge measures per-trace merge cost into a warm tree.
func BenchmarkTreeMerge(b *testing.B) {
	p := benchProgram(b)
	rng := stats.NewRNG(2)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	paths := make([][]trace.BranchEvent, 256)
	outcomes := make([]prog.Outcome, 256)
	for i := range paths {
		col.Reset()
		input := []int64{rng.Int63n(256), rng.Int63n(256)}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("pod", uint64(i), res, input, trace.PrivacyHashed, "s")
		paths[i] = tr.Branches
		outcomes[i] = tr.Outcome
	}
	tree := exectree.New(p.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Merge(paths[i%len(paths)], outcomes[i%len(paths)])
	}
}

// BenchmarkDPLLPhaseTransition measures one solver on a hard instance.
func BenchmarkDPLLPhaseTransition(b *testing.B) {
	rng := stats.NewRNG(3)
	f := sat.Random3SAT(rng, 60, 4.26)
	solver := sat.NewJW()
	b.ResetTimer()
	var ticks int64
	for i := 0; i < b.N; i++ {
		res := solver.Solve(f, 0, nil)
		ticks += res.Ticks
	}
	b.ReportMetric(float64(ticks)/float64(b.N), "ticks/solve")
}

// --- hive sharding and fleet parallelism benchmarks ---

// globalMutexClient reproduces the pre-sharding hive discipline: one
// process-wide mutex serializing every ingest, regardless of which program
// a batch describes. It is the measurable baseline BenchmarkHiveIngestParallel
// is compared against.
type globalMutexClient struct {
	mu sync.Mutex
	h  *hive.Hive
}

func (c *globalMutexClient) SubmitTraces(traces []*trace.Trace) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h.SubmitTraces(traces)
}

// benchIngestSetup registers nProgs distinct programs and pre-captures a
// pool of full-capture traces per program, so the benchmark measures pure
// ingestion (grouping, bookkeeping, tree merging) with no VM time.
func benchIngestSetup(b *testing.B, nProgs int) (*hive.Hive, [][]*trace.Trace) {
	b.Helper()
	h := hive.New("fleet")
	pool := make([][]*trace.Trace, nProgs)
	rng := stats.NewRNG(11)
	for pi := 0; pi < nProgs; pi++ {
		p, _, err := proggen.Generate(proggen.Spec{
			Seed: uint64(900 + pi), Depth: 6, Loops: 1, NumInputs: 2, DetBranches: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := h.RegisterProgram(p); err != nil {
			b.Fatal(err)
		}
		traces := make([]*trace.Trace, 64)
		for i := range traces {
			col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
			input := []int64{rng.Int63n(256), rng.Int63n(256)}
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				b.Fatal(err)
			}
			res := m.Run()
			traces[i] = col.Finish(fmt.Sprintf("bench-pod-%d", pi), uint64(i), res, input, trace.PrivacyHashed, "fleet")
		}
		pool[pi] = traces
	}
	return h, pool
}

// submitTraces is the per-op client call both ingest benchmarks share.
type submitter interface {
	SubmitTraces([]*trace.Trace) error
}

// benchIngest drives b.N batch submissions (8 traces each) from 8
// goroutines round-robining across the program pool — the ISSUE's
// 8-goroutine / ≥4-program ingestion workload. traces/op is constant, so
// ns/op directly compares the two locking disciplines.
func benchIngest(b *testing.B, client submitter, pool [][]*trace.Trace) {
	b.Helper()
	const goroutines = 8
	const batchSize = 8
	b.ReportAllocs()
	b.ResetTimer()
	var (
		wg   sync.WaitGroup
		next int64
		fail atomic.Value
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= b.N {
					return
				}
				traces := pool[i%len(pool)]
				off := (i * batchSize) % len(traces)
				batch := make([]*trace.Trace, 0, batchSize)
				for k := 0; k < batchSize; k++ {
					batch = append(batch, traces[(off+k)%len(traces)])
				}
				if err := client.SubmitTraces(batch); err != nil {
					fail.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if err := fail.Load(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(batchSize, "traces/op")
}

// BenchmarkHiveIngestSerialBaseline measures fleet ingestion with the
// pre-sharding single-global-mutex discipline.
func BenchmarkHiveIngestSerialBaseline(b *testing.B) {
	h, pool := benchIngestSetup(b, 4)
	benchIngest(b, &globalMutexClient{h: h}, pool)
}

// columnarViewClient is the zero-copy ingest path: one validated view over
// the batch bytes, consumed in place.
type columnarViewClient struct{ h *hive.Hive }

func (c *columnarViewClient) submitEncoded(programID string, batch []byte) error {
	view, err := trace.DecodeBatch(batch)
	if err != nil {
		return err
	}
	_, err = c.h.SubmitColumnarSession("", 0, view)
	view.Release()
	return err
}

// benchIngestEncodedSetup pre-encodes each program's trace pool into
// columnar batch payloads of 8 traces — what the wire delivers.
func benchIngestEncodedSetup(b *testing.B, nProgs int) (*hive.Hive, []string, [][][]byte) {
	b.Helper()
	h, pool := benchIngestSetup(b, nProgs)
	ids := make([]string, nProgs)
	columnar := make([][][]byte, nProgs) // program -> batch -> bytes
	const batchSize = 8
	for pi, traces := range pool {
		ids[pi] = traces[0].ProgramID
		for off := 0; off+batchSize <= len(traces); off += batchSize {
			enc, err := trace.EncodeBatch(ids[pi], traces[off:off+batchSize])
			if err != nil {
				b.Fatal(err)
			}
			columnar[pi] = append(columnar[pi], enc)
		}
	}
	return h, ids, columnar
}

// BenchmarkHiveIngestParallel measures the fleet ingest path, 8 goroutines
// round-robining across 4 program shards. The columnar-view sub-benchmark
// feeds pre-encoded batches (what the wire delivers): one zero-copy view
// per batch, merged straight from the frame bytes. The materialized
// sub-benchmark submits Trace structs in process (SubmitTraces, which
// encodes each group once before the same view path), for continuity with
// BenchmarkHiveIngestSerialBaseline. traces/op is constant, so ns/op and
// allocs/op compare directly.
func BenchmarkHiveIngestParallel(b *testing.B) {
	const goroutines = 8
	const batchSize = 8
	run := func(b *testing.B, submit func(pi, batch int) error, batches int) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		var (
			wg   sync.WaitGroup
			next int64
			fail atomic.Value
		)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= b.N {
						return
					}
					if err := submit(i%4, (i/4)%batches); err != nil {
						fail.Store(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if err := fail.Load(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(batchSize, "traces/op")
	}
	b.Run("columnar-view", func(b *testing.B) {
		h, ids, columnar := benchIngestEncodedSetup(b, 4)
		c := &columnarViewClient{h: h}
		run(b, func(pi, batch int) error { return c.submitEncoded(ids[pi], columnar[pi][batch]) }, len(columnar[0]))
	})
	b.Run("materialized", func(b *testing.B) {
		h, pool := benchIngestSetup(b, 4)
		benchIngest(b, h, pool)
	})
}

// benchSimulation runs one whole-fleet SoftBorg day-loop per iteration.
func benchSimulation(b *testing.B, workers int) {
	b.Helper()
	corpus := make([]core.ProgramUnderTest, 3)
	for i := range corpus {
		p, bugs, err := proggen.Generate(proggen.Spec{
			Seed: uint64(700 + i), Depth: 4,
			Bugs:         []proggen.BugKind{proggen.BugCrash},
			TriggerWidth: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		corpus[i] = core.ProgramUnderTest{Prog: p, Bugs: bugs}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulation(core.Config{
			Seed:       9,
			Programs:   corpus,
			Population: population.Config{Users: 32, MeanRunsPerDay: 8},
			Days:       2,
			Mode:       core.ModeSoftBorg,
			Workers:    workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationSequential is the one-worker fleet loop baseline.
func BenchmarkSimulationSequential(b *testing.B) { benchSimulation(b, 1) }

// BenchmarkSimulationParallel runs the same fleet across GOMAXPROCS
// workers; results are bit-for-bit identical to the sequential run (see
// core.TestParallelRunMatchesSequential), only the wall clock changes.
func BenchmarkSimulationParallel(b *testing.B) { benchSimulation(b, 0) }

// --- guidance read-path and wire pipelining benchmarks ---

// buildGuidanceTree merges n real executions of p (random inputs) into a
// fresh tree — the realistic tree shape the hive's guidance path reads.
func buildGuidanceTree(b *testing.B, p *prog.Program, merges int) *exectree.Tree {
	b.Helper()
	rng := stats.NewRNG(5)
	tree := exectree.New(p.ID)
	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	for i := 0; i < merges; i++ {
		col.Reset()
		input := make([]int64, p.NumInputs)
		for j := range input {
			input[j] = rng.Int63n(256)
		}
		m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("bench-pod", uint64(i), res, input, trace.PrivacyHashed, "s")
		tree.Merge(tr.Branches, tr.Outcome)
	}
	return tree
}

// BenchmarkGuidanceLargeTree measures the guidance read path as the tree
// grows: the full-walk baseline (what Guidance used to do under the tree
// read-lock on every request) against the incremental frontier index —
// frontier snapshot and end-to-end test-case generation. The indexed cost
// tracks the open-frontier count, not the tree size.
func BenchmarkGuidanceLargeTree(b *testing.B) {
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 505, Depth: 8, Loops: 2, Syscalls: 1, NumInputs: 4, DetBranches: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := guidance.NewGenerator(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, merges := range []int{256, 2048, 16384} {
		tree := buildGuidanceTree(b, p, merges)
		nodes := tree.Stats().Nodes
		b.Run(fmt.Sprintf("fullwalk-baseline/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.FrontiersByWalk(32)
			}
		})
		b.Run(fmt.Sprintf("indexed-snapshot/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.Frontiers(32)
			}
		})
		b.Run(fmt.Sprintf("generate/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen.Generate(tree, 8)
			}
		})
	}
}

// nullHive is a no-op backend isolating wire-transport cost. It accepts
// the columnar path too (consuming the view's branch columns, as a real
// backend would) so the codec disciplines compare on equal footing.
type nullHive struct {
	ingested atomic.Int64
	scratch  []trace.BranchEvent // single-conn benchmarks: no concurrent use
}

func (n *nullHive) SubmitTraces(traces []*trace.Trace) error {
	n.ingested.Add(int64(len(traces)))
	return nil
}
func (n *nullHive) SubmitColumnarSession(_ string, _ uint64, batch *trace.BatchView) (bool, error) {
	for i := 0; i < batch.Len(); i++ {
		n.scratch = batch.AppendBranches(n.scratch[:0], i)
	}
	n.ingested.Add(int64(batch.Len()))
	return false, nil
}
func (n *nullHive) FixesSince(string, int) ([]fix.Fix, int, error) { return nil, 0, nil }
func (n *nullHive) Guidance(string, int) ([]guidance.TestCase, error) {
	return nil, nil
}

// benchWireSubmit submits the same 32 batches × 8 traces per op, either one
// frame per round trip (the pre-pipelining discipline) or streamed through
// the pipelined sealed path.
func benchWireSubmit(b *testing.B, pipelined bool) {
	b.Helper()
	p := benchProgram(b)
	backend := &nullHive{}
	srv := wire.NewServer(backend)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := wire.Dial(addr)
	defer client.Close()

	col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
	m, err := prog.NewMachine(p, prog.Config{Input: []int64{42, 99}, Observer: col})
	if err != nil {
		b.Fatal(err)
	}
	res := m.Run()
	tmpl := col.Finish("bench-pod", 0, res, []int64{42, 99}, trace.PrivacyHashed, "s")
	const batches = 32
	const perBatch = 8
	all := make([][]*trace.Trace, batches)
	for i := range all {
		all[i] = make([]*trace.Trace, perBatch)
		for j := range all[i] {
			tr := tmpl.Clone()
			tr.Seq = uint64(i*perBatch + j)
			all[i][j] = tr
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pipelined {
			if _, err := client.SubmitSealed(client.SealTraceBatches(p.ID, all)); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, batch := range all {
				if err := client.SubmitTraces(batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	if got := backend.ingested.Load(); got != int64(b.N*batches*perBatch) {
		b.Fatalf("backend ingested %d, want %d", got, b.N*batches*perBatch)
	}
	b.ReportMetric(batches*perBatch, "traces/op")
}

// BenchmarkWireSubmitSerial is the one-frame-per-roundtrip baseline the
// pre-PR-2 server forced.
func BenchmarkWireSubmitSerial(b *testing.B) { benchWireSubmit(b, false) }

// BenchmarkWireSubmitPipelined streams the same work through the pipelined
// sealed submission path — same traces/op as the serial baseline, so ns/op
// and allocs/op compare directly.
func BenchmarkWireSubmitPipelined(b *testing.B) {
	b.Run("columnar", func(b *testing.B) { benchWireSubmit(b, true) })
}

// shapedCorpus captures varied real traces (distinct inputs, real branch
// histories) in streamChunk-sized batches: compression ratios on this corpus
// are production-shaped — hot paths repeat, inputs differ — instead of the
// degenerate ratio identical cloned traces would give.
func shapedCorpus(b *testing.B, p *prog.Program, chunks, perChunk int) [][]*trace.Trace {
	b.Helper()
	out := make([][]*trace.Trace, chunks)
	for i := range out {
		out[i] = make([]*trace.Trace, perChunk)
		for j := range out[i] {
			n := i*perChunk + j
			input := []int64{int64(n * 13 % 160), int64(n * 7 % 90)}
			col := trace.NewCollector(p, trace.CaptureFull, 0, uint64(n+1))
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				b.Fatal(err)
			}
			res := m.Run()
			out[i][j] = col.Finish(fmt.Sprintf("pod-%d", n%8), uint64(n), res, input, trace.PrivacyHashed, "s")
		}
	}
	return out
}

// BenchmarkShapedSubmit is the WAN experiment (E15): the same 128-chunk
// drain submitted through a netshape proxy at three RTT/loss points, once
// with the PR-5 transport discipline (columnar frames, no coalescing, no
// compression) and once with the WAN transport (coalesced mega-frames +
// negotiated compression). Both run the identical pipelining window, so the
// ratio isolates what framing and bytes-on-the-wire are worth once a real
// network sits between pod and hive.
func BenchmarkShapedSubmit(b *testing.B) {
	p := benchProgram(b)
	const chunks = 128
	const perChunk = 256
	all := shapedCorpus(b, p, chunks, perChunk)
	shapes := []struct {
		name string
		rtt  time.Duration
		loss float64
	}{
		{"rtt=50ms,loss=0.1%", 50 * time.Millisecond, 0.001},
		{"rtt=100ms,loss=0.5%", 100 * time.Millisecond, 0.005},
		{"rtt=200ms,loss=1.0%", 200 * time.Millisecond, 0.01},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			for _, mode := range []string{"pr5", "wan"} {
				b.Run(mode, func(b *testing.B) {
					backend := &nullHive{}
					srv := wire.NewServer(backend)
					srv.Logf = func(string, ...any) {}
					addr, err := srv.Listen("127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					proxy, err := netshape.New(addr, netshape.Config{
						RTT:       shape.rtt,
						Loss:      shape.loss,
						Bandwidth: 16 << 20, // a fleet's uplink share, not loopback
						Seed:      42,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer proxy.Close()
					client := wire.Dial(proxy.Addr())
					defer client.Close()
					if mode == "pr5" {
						client.DisableCoalesce = true
						client.DisableCompression = true
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						accepted, err := client.SubmitSealed(client.SealTraceBatches(p.ID, all))
						if err != nil {
							b.Fatal(err)
						}
						for k, ok := range accepted {
							if !ok {
								b.Fatalf("chunk %d not accepted", k)
							}
						}
					}
					b.StopTimer()
					if got := backend.ingested.Load(); got != int64(b.N*chunks*perChunk) {
						b.Fatalf("backend ingested %d, want %d", got, b.N*chunks*perChunk)
					}
					elapsed := b.Elapsed()
					if elapsed > 0 {
						b.ReportMetric(float64(b.N*chunks*perChunk)/elapsed.Seconds(), "traces/sec")
					}
				})
			}
		})
	}
}
