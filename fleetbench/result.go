package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hive"
)

// runResult is everything one run of a workload measured.
type runResult struct {
	setup   []float64 // seconds per rig build
	start   time.Time
	elapsed time.Duration
	ops     float64 // operations completed: traces, runs or sessions
	// perSecond counts operations completed in each whole second of the
	// timed phase.
	perSecond []atomic.Int64
	lat       samples // ms per workload operation, in completion order
	acked     int64   // traces acked, including the post-run tail
	frames    frameCounter

	cpuStart  time.Duration
	cpu       time.Duration // process CPU time in the timed phase
	peakHeap  uint64
	queuePeak int64
	sampler   *peakSampler

	stateBytes    int64 // the hive's full snapshot after the run
	recoverS      []float64
	openMS        []float64
	hiveRecoverMS []float64
	readBytes     []float64
	checkpointMS  []float64

	attempted, failed int64
	errMu             sync.Mutex
	firstErr          error
	misses            []string
	warnings          []string
	invalid           string

	layer map[string]float64 // per-layer values measured outside the tracer
	spans []span             // timed-phase spans (traced runs)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func newRunResult() *runResult { return &runResult{layer: make(map[string]float64)} }

// noteErr keeps the first failed call's error for the report.
func (r *runResult) noteErr(err error) {
	if err == nil {
		return
	}
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

func (r *runResult) miss(format string, args ...any) {
	r.misses = append(r.misses, fmt.Sprintf(format, args...))
}

func (r *runResult) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

// beginTimed starts the timed phase: set-up garbage is collected, set-up
// spans are dropped, and the heap and server-queue peaks are tracked.
func (r *runResult) beginTimed(tr *tracer, srv *server, d time.Duration) {
	r.perSecond = make([]atomic.Int64, int(d/time.Second)+1)
	runtime.GC()
	tr.take()
	r.sampler = startPeakSampler(10*time.Millisecond, func() int64 {
		return srv.srv.AdmissionStats().QueuedBytes
	})
	r.cpuStart = cpuTime()
	r.start = time.Now()
}

func (r *runResult) endTimed(tr *tracer, srv *server) {
	r.elapsed = time.Since(r.start)
	r.cpu = cpuTime() - r.cpuStart
	r.peakHeap, r.queuePeak = r.sampler.finish()
	r.spans = tr.take()
	as := srv.srv.AdmissionStats()
	r.layer["wire.busy_replies"] = float64(as.BusyReplies + as.ReadOnlyBusy)
	r.layer["wire.queue_bytes_peak"] = float64(r.queuePeak)
	if srv.traced != nil {
		r.layer["hive.dup_acks"] = float64(srv.traced.dups.Load())
	}
	r.layer["run.cpu_util"] = r.cpu.Seconds() / r.elapsed.Seconds()
}

// collectHive records the hive's state size at the end of the timed phase.
func (r *runResult) collectHive(h *hive.Hive) {
	nodes, frontiers, err := treeTotals(h)
	if err != nil {
		r.miss("tree stats: %v", err)
	}
	r.layer["exectree.nodes"] = float64(nodes)
	r.layer["exectree.open_frontiers"] = float64(frontiers)
	minted := 0
	for _, id := range h.Programs() {
		if st, err := h.ProgramStats(id); err == nil {
			minted += st.FixCount
		}
	}
	r.layer["fix.minted"] = float64(minted)
}

// done counts n operations completed now.
func (r *runResult) done(n int64) {
	if i := int(time.Since(r.start) / time.Second); i < len(r.perSecond) {
		r.perSecond[i].Add(n)
	}
}

// throughput is the median of the per-second operation counts over the
// whole seconds of the timed phase, so a few seconds in which the machine
// gave the process less CPU move it less than they move the mean. Runs
// shorter than three seconds report the mean.
func (r *runResult) throughput() float64 {
	full := min(int(r.elapsed/time.Second), len(r.perSecond))
	if full < 3 {
		return r.ops / r.elapsed.Seconds()
	}
	v := make([]float64, full)
	for i := range v {
		v[i] = float64(r.perSecond[i].Load())
	}
	return median(v)
}

// failures is failed public calls plus correctness misses.
func (r *runResult) failures() int64 { return r.failed + int64(len(r.misses)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits is the untraced metric set every workload reports.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_heap_mb", "MiB"},
	{"frame_bytes_per_trace", "B/trace"},
	{"state_kib", "KiB"},
}

// minTailSamples is the fewest latency samples a p99 may rest on; below
// it the report warns.
const minTailSamples = 1000

func (r *runResult) endToEnd() map[string]metric {
	lat := r.lat.sorted()
	vals := map[string]float64{
		"setup_s":          median(r.setup),
		"throughput_per_s": r.throughput(),
		"latency_p50_ms":   quantile(lat, 0.50),
		"latency_p90_ms":   quantile(lat, 0.90),
		"peak_heap_mb":     float64(r.peakHeap) / (1 << 20),
		"state_kib":        float64(r.stateBytes) / 1024,
	}
	if r.ops > 0 {
		vals["cpu_us_per_op"] = float64(r.cpu.Microseconds()) / r.ops
	}
	if n := r.frames.traces.Load(); n > 0 {
		vals["frame_bytes_per_trace"] = float64(r.frames.bytes.Load()) / float64(n)
	}
	out := make(map[string]metric, len(endToEndUnits))
	for _, m := range endToEndUnits {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}
