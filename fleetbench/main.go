// Command fleetbench is the repository's benchmark: it runs one named
// workload against the real pod → wire → hive → journal path and prints
// its end-to-end metrics (or, with --trace 1, its per-layer metrics) with
// a correctness verdict. The hive runs in this process behind a wire.Server
// on loopback TCP; durable workloads journal to a data dir under
// --data-root. See README.md for the workloads and metrics.
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/hive"
	"repro/internal/pod"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dataRoot string
	// wrap, when set, wraps the hive handed to the wire server (tests use
	// it to break the hive on purpose).
	wrap func(*hive.Hive) pod.HiveClient
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

var workloads = map[string]func(config, *tracer) (*runResult, error){
	"ingest": runIngest,
	"fleet":  runFleet,
	"churn":  runChurn,
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args, runs the workload and prints the report; wrap is
// config.wrap.
func run(args []string, stdout, stderr io.Writer, wrap func(*hive.Hive) pod.HiveClient) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ingest, fleet or churn")
	seed := fs.Uint64("seed", 0, "workload seed (default --default-seed)")
	defaultSeed := fs.Uint64("default-seed", 1, "seed used when --seed is not given")
	heldoutSeed := fs.Uint64("heldout-seed", 0, "seed kept out of tuning; recorded in the report")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	dataRoot := fs.String("data-root", filepath.Join(".bench_build", "fleetbench-data"), "directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, wrap: wrap}
	if !seedSet {
		cfg.seed = *defaultSeed
	}
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "fleetbench: need --workload ingest|fleet|churn, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	root, err := filepath.Abs(filepath.Join(*dataRoot, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	cfg.dataRoot = root
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	printEnv(stdout, cfg, *defaultSeed, *heldoutSeed)
	out := output{Correct: true, Metrics: make(map[string]metric)}
	plain, err := fn(cfg, nil)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	account(&out, plain, stdout, "untraced")
	e2e := plain.endToEnd()
	printMetrics(stdout, "end-to-end ("+cfg.workload+")", e2e)
	out.Metrics = e2e

	if cfg.trace {
		runtime.GC()
		tr := newTracer()
		traced, err := fn(cfg, tr)
		if err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		account(&out, traced, stdout, "traced")
		layer := layerMetrics(traced)
		te2e := traced.endToEnd()
		if p := e2e["latency_p50_ms"].Value; p > 0 {
			layer["trace.overhead_p50_share"] = te2e["latency_p50_ms"].Value/p - 1
		}
		if t := te2e["throughput_per_s"].Value; t > 0 {
			layer["trace.overhead_tput_share"] = e2e["throughput_per_s"].Value/t - 1
		}
		out.Metrics = make(map[string]metric, len(perLayerUnits))
		for _, u := range perLayerUnits {
			out.Metrics[u.name] = metric{layer[u.name], u.unit}
		}
		printMetrics(stdout, "per-layer, traced ("+cfg.workload+")", out.Metrics)
		if layer["trace.unattributed"] != 0 {
			fmt.Fprintf(stdout, "UNATTRIBUTED: layer spans cover %.1f%% of %s operation time (floor %.0f%%)\n",
				100*layer["trace.coverage"], cfg.workload, 100*coverageFloor)
		}
		path := filepath.Join(filepath.Dir(root), fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
		if err := writeSpans(path, traced.spans); err != nil {
			fmt.Fprintln(stderr, "fleetbench: write spans:", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(traced.spans), path)
		}
	}

	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// account folds one run's attempts, failures and correctness into the
// result and prints its gate.
func account(out *output, r *runResult, w io.Writer, label string) {
	out.Attempted += r.attempted
	out.Failed += r.failures()
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failures()) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s run: attempted=%d failed=%d failed_ratio=%.6f latency_samples=%d cpu_util=%.2f\n",
		label, r.attempted, r.failures(), ratio, r.lat.len(), r.cpu.Seconds()/r.elapsed.Seconds())
	if n := len(r.checkpointMS); n > 0 {
		fmt.Fprintf(w, "%s run: checkpoints=%d checkpoint_ms_p50=%.2f checkpoint_ms_max=%.2f\n",
			label, n, quantile(r.checkpointMS, 0.5), r.checkpointMS[n-1])
	}
	if n := len(r.recoverS); n > 0 {
		rs := sortedCopy(r.recoverS)
		// Reported, not gated: see README.md.
		fmt.Fprintf(w, "%s run: recover_s=%.4f (fastest; median %.4f, slowest %.4f over %d cycles)\n",
			label, rs[0], median(rs), rs[n-1], n)
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "%s run: first failed call: %v\n", label, r.firstErr)
	}
	for _, m := range r.misses {
		fmt.Fprintf(w, "CORRECTNESS MISS (%s): %s\n", label, m)
	}
	if r.invalid != "" {
		fmt.Fprintf(w, "INVALID (%s): %s\n", label, r.invalid)
	}
	// The p99 is reported but not gated: see README.md.
	lat := r.lat.sorted()
	fmt.Fprintf(w, "%s run: latency_p99_ms=%.4f over %d samples\n", label, quantile(lat, 0.99), len(lat))
	if r.lat.len() < minTailSamples {
		r.warn("latency tails rest on %d samples (< %d)", r.lat.len(), minTailSamples)
	}
	for _, m := range r.warnings {
		fmt.Fprintf(w, "WARNING (%s): %s\n", label, m)
	}
	if len(r.misses) > 0 || r.failed > 0 || r.invalid != "" {
		out.Correct = false
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer\tstart_ns\tend_ns\top\tkey\tn")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%s\t%d\n", s.layer, s.start, s.end, s.op, s.key, s.n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
