package main

import (
	"sort"
)

// perLayerUnits is the traced-run metric set, printed for every workload;
// a layer a workload does not use reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"pod.run_us.p50", "us"},
	{"pod.run_us.p99", "us"},
	{"pod.guided_run_us.p50", "us"},
	{"pod.syncfixes_us.p50", "us"},
	{"prog.steps_per_run", "count"},
	{"wire.seal_us_per_trace", "us"},
	{"wire.frame_bytes_per_trace", "B/trace"},
	{"wire.submit_ms.p50", "ms"},
	{"wire.submit_ms.p99", "ms"},
	{"wire.hello_ms.p50", "ms"},
	{"wire.hello_ms.p99", "ms"},
	{"wire.guidance_rtt_us.p50", "us"},
	{"wire.server_overhead_share", "fraction"},
	{"wire.busy_replies", "count"},
	{"wire.queue_bytes_peak", "B"},
	{"hive.submit_us.p50", "us"},
	{"hive.submit_us.p99", "us"},
	{"hive.submit_self_us.p50", "us"},
	{"hive.submit_self_us.p99", "us"},
	{"hive.dup_acks", "count"},
	{"hive.guidance_us.p50", "us"},
	{"hive.guidance_us.p99", "us"},
	{"hive.fixes_since_us.p50", "us"},
	{"hive.checkpoints", "count"},
	{"hive.checkpoint_ms.p50", "ms"},
	{"hive.checkpoint_ms.max", "ms"},
	{"hive.recover_ms", "ms"},
	{"hive.sessions", "count"},
	{"exectree.nodes", "count"},
	{"exectree.open_frontiers", "count"},
	{"fix.minted", "count"},
	{"journal.flushes", "count"},
	{"journal.batches_per_flush", "count"},
	{"journal.fsyncs", "count"},
	{"journal.fsync_us.p50", "us"},
	{"journal.fsync_us.p99", "us"},
	{"journal.write_bytes_per_trace", "B/trace"},
	{"journal.disk_bytes", "B"},
	{"journal.snapshot_bytes", "B"},
	{"journal.open_ms", "ms"},
	{"journal.read_bytes", "B"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.backlog_end", "count"},
	{"run.cpu_util", "fraction"},
	{"fleet.epochs", "count"},
	{"self.pod_ms", "ms"},
	{"self.seal_ms", "ms"},
	{"self.wire_ms", "ms"},
	{"self.hive_ms", "ms"},
	{"self.journal_ms", "ms"},
	{"trace.coverage", "fraction"},
	{"trace.unattributed", "count"},
	{"trace.overhead_p50_share", "fraction"},
	{"trace.overhead_tput_share", "fraction"},
	{"trace.spans", "count"},
}

// coverageFloor is the share of an operation's end-to-end time that layer
// spans on its blocking path must cover; below it the workload is flagged
// unattributed.
const coverageFloor = 0.90

// intervals is a set of disjoint, sorted [lo, hi) intervals with prefix
// sums, answering "how much of [lo, hi) does the set cover".
type intervals struct {
	lo, hi, pre []int64
}

func newIntervals(spans []span) *intervals {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		if s.end > s.start {
			iv = append(iv, [2]int64{s.start, s.end})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	out := &intervals{pre: []int64{0}}
	for _, v := range iv {
		if n := len(out.hi); n > 0 && v[0] <= out.hi[n-1] {
			if v[1] > out.hi[n-1] {
				out.pre[n] += v[1] - out.hi[n-1]
				out.hi[n-1] = v[1]
			}
			continue
		}
		out.lo = append(out.lo, v[0])
		out.hi = append(out.hi, v[1])
		out.pre = append(out.pre, out.pre[len(out.pre)-1]+v[1]-v[0])
	}
	return out
}

// overlap returns how much of [lo, hi) the set covers.
func (s *intervals) overlap(lo, hi int64) int64 {
	if hi <= lo || len(s.lo) == 0 {
		return 0
	}
	// First interval ending after lo, last starting before hi.
	i := sort.Search(len(s.hi), func(k int) bool { return s.hi[k] > lo })
	j := sort.Search(len(s.lo), func(k int) bool { return s.lo[k] >= hi })
	if i >= j {
		return 0
	}
	total := s.pre[j] - s.pre[i]
	if s.lo[i] < lo {
		total -= lo - s.lo[i]
	}
	if s.hi[j-1] > hi {
		total -= s.hi[j-1] - hi
	}
	return total
}

func durations(spans []span, unit float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / unit
	}
	sort.Float64s(out)
	return out
}

// linkByKey pairs each server span with the client span of the same key
// whose interval contains the server span's start, returning the children
// per client span index.
func linkByKey(client, server []span) map[int][]span {
	byKey := make(map[string][]int)
	for i, c := range client {
		byKey[c.key] = append(byKey[c.key], i)
	}
	out := make(map[int][]span)
	for _, s := range server {
		for _, i := range byKey[s.key] {
			if c := client[i]; s.start >= c.start && s.start <= c.end {
				out[i] = append(out[i], s)
				break
			}
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced run from its
// timed-phase spans and the values measured outside the tracer.
func layerMetrics(r *runResult) map[string]float64 {
	by := make(map[string][]span)
	for _, s := range r.spans {
		by[s.layer] = append(by[s.layer], s)
	}
	m := make(map[string]float64)
	for k, v := range r.layer {
		m[k] = v
	}
	const us, ms = 1e3, 1e6

	run := durations(by["pod.run"], us)
	m["pod.run_us.p50"] = quantile(run, 0.5)
	m["pod.run_us.p99"] = quantile(run, 0.99)
	m["pod.syncfixes_us.p50"] = quantile(durations(by["pod.syncfixes"], us), 0.5)

	var sealNS, sealTraces, frameBytes int64
	for _, s := range by["wire.seal"] {
		sealNS += s.dur()
		sealTraces += s.n
	}
	for _, s := range by["wire.frame_bytes"] {
		frameBytes += s.n
	}
	if sealTraces > 0 {
		m["wire.seal_us_per_trace"] = float64(sealNS) / us / float64(sealTraces)
		m["wire.frame_bytes_per_trace"] = float64(frameBytes) / float64(sealTraces)
	}
	submit := durations(by["wire.submit"], ms)
	m["wire.submit_ms.p50"] = quantile(submit, 0.5)
	m["wire.submit_ms.p99"] = quantile(submit, 0.99)
	hello := durations(by["wire.hello"], ms)
	m["wire.hello_ms.p50"] = quantile(hello, 0.5)
	m["wire.hello_ms.p99"] = quantile(hello, 0.99)
	m["wire.guidance_rtt_us.p50"] = quantile(durations(by["wire.guidance"], us), 0.5)

	// Journal: each WAL write is one group-commit flush; snapshot writes
	// and every fsync belong to checkpoints (flushes are not fsynced, see
	// journalOptions).
	fsAll := append(append(append([]span(nil), by["fs.write"]...), by["fs.sync"]...), by["fs.read"]...)
	fsSet := newIntervals(fsAll)
	var walBytes, snapBytes, journalNS, flushes int64
	for _, s := range fsAll {
		journalNS += s.dur()
	}
	for _, s := range by["fs.write"] {
		switch s.key {
		case "wal":
			walBytes += s.n
			flushes++
		case "snap":
			snapBytes += s.n
		}
	}
	m["journal.flushes"] = float64(flushes)
	m["journal.fsyncs"] = float64(len(by["fs.sync"]))
	fsync := durations(by["fs.sync"], us)
	m["journal.fsync_us.p50"] = quantile(fsync, 0.5)
	m["journal.fsync_us.p99"] = quantile(fsync, 0.99)
	hiveSubmits := by["hive.submit"]
	var submittedTraces int64
	for _, s := range hiveSubmits {
		submittedTraces += s.n
	}
	if flushes > 0 {
		m["journal.batches_per_flush"] = float64(len(hiveSubmits)) / float64(flushes)
	}
	if submittedTraces > 0 {
		m["journal.write_bytes_per_trace"] = float64(walBytes) / float64(submittedTraces)
	}
	m["hive.checkpoints"] = float64(len(r.checkpointMS))
	if len(r.checkpointMS) > 0 {
		m["journal.snapshot_bytes"] = float64(snapBytes) / float64(len(r.checkpointMS))
		m["hive.checkpoint_ms.p50"] = quantile(r.checkpointMS, 0.5)
		m["hive.checkpoint_ms.max"] = r.checkpointMS[len(r.checkpointMS)-1]
	}
	m["journal.open_ms"] = median(r.openMS)
	m["journal.read_bytes"] = median(r.readBytes)
	m["hive.recover_ms"] = median(r.hiveRecoverMS)

	// Hive: time inside each call, and the part not overlapped by journal
	// I/O (the CPU apply path).
	selfOf := func(spans []span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = float64(s.dur()-fsSet.overlap(s.start, s.end)) / us
		}
		sort.Float64s(out)
		return out
	}
	hs := durations(hiveSubmits, us)
	m["hive.submit_us.p50"] = quantile(hs, 0.5)
	m["hive.submit_us.p99"] = quantile(hs, 0.99)
	hself := selfOf(hiveSubmits)
	m["hive.submit_self_us.p50"] = quantile(hself, 0.5)
	m["hive.submit_self_us.p99"] = quantile(hself, 0.99)
	hg := durations(by["hive.guidance"], us)
	m["hive.guidance_us.p50"] = quantile(hg, 0.5)
	m["hive.guidance_us.p99"] = quantile(hg, 0.99)
	m["hive.fixes_since_us.p50"] = quantile(durations(by["hive.fixes"], us), 0.5)
	hiveSelf := 0.0
	for _, l := range []string{"hive.submit", "hive.guidance", "hive.fixes"} {
		hiveSelf += sum(selfOf(by[l]))
	}
	m["self.hive_ms"] = hiveSelf / 1e3
	m["self.journal_ms"] = float64(journalNS) / ms

	// Wire: client round trip minus the linked hive call. Frames link to
	// their drain's submit through the key the benchmark chose.
	keyOp := make(map[string]int64)
	for _, s := range by["wire.frame"] {
		keyOp[s.key] = s.op
	}
	submits := by["wire.submit"]
	opSubmit := make(map[int64]int)
	for i, s := range submits {
		opSubmit[s.op] = i
	}
	submitKids := make(map[int][]span)
	for _, s := range hiveSubmits {
		if op, ok := keyOp[s.key]; ok {
			if i, ok := opSubmit[op]; ok {
				submitKids[i] = append(submitKids[i], s)
			}
		}
	}
	var submitNS, linkedNS int64
	wireSelf := int64(0)
	for _, s := range by["wire.hello"] {
		wireSelf += s.dur()
	}
	for i, s := range submits {
		in := newIntervals(submitKids[i]).overlap(s.start, s.end)
		submitNS += s.dur()
		linkedNS += in
		wireSelf += s.dur() - in
	}
	if submitNS > 0 {
		m["wire.server_overhead_share"] = 1 - float64(linkedNS)/float64(submitNS)
	}
	guideKids := linkByKey(by["wire.guidance"], by["hive.guidance"])
	for _, pair := range []struct {
		client []span
		kids   map[int][]span
	}{
		{by["wire.guidance"], guideKids},
		{by["wire.fixes"], linkByKey(by["wire.fixes"], by["hive.fixes"])},
	} {
		for i, s := range pair.client {
			wireSelf += s.dur() - newIntervals(pair.kids[i]).overlap(s.start, s.end)
		}
	}
	m["self.wire_ms"] = float64(wireSelf) / ms
	m["self.seal_ms"] = float64(sealNS) / ms

	// Pod: runs, plus fix syncs and guidance pulls minus their wire round
	// trips; a pull's remainder is its guided runs.
	podNS := int64(0)
	for _, s := range by["pod.run"] {
		podNS += s.dur()
	}
	rttByOp := make(map[int64][]span)
	for _, s := range append(append([]span(nil), by["wire.fixes"]...), by["wire.guidance"]...) {
		rttByOp[s.op] = append(rttByOp[s.op], s)
	}
	local := func(s span) int64 { return s.dur() - newIntervals(rttByOp[s.op]).overlap(s.start, s.end) }
	for _, s := range by["pod.syncfixes"] {
		podNS += local(s)
	}
	var guided []float64
	for _, s := range by["pod.pullguidance"] {
		podNS += local(s)
		if s.n > 0 {
			guided = append(guided, float64(local(s))/us/float64(s.n))
		}
	}
	sort.Float64s(guided)
	m["pod.guided_run_us.p50"] = quantile(guided, 0.5)
	m["self.pod_ms"] = float64(podNS) / ms

	// Accounting: how much of each drain, session and guidance round trip
	// the layer spans on its blocking path cover: the client's seal and
	// the hive calls (journal I/O included) the server made for it. The
	// rest is the wire's own time — transit, server queueing, framing and
	// acks — which no span attributes.
	blocking := make(map[int64][]span)
	for _, s := range by["wire.seal"] {
		blocking[s.op] = append(blocking[s.op], s)
	}
	for _, s := range hiveSubmits {
		if op, ok := keyOp[s.key]; ok {
			blocking[op] = append(blocking[op], s)
		}
	}
	var opNS, coveredNS int64
	for _, l := range []string{"op.drain", "op.session"} {
		for _, s := range by[l] {
			opNS += s.dur()
			coveredNS += newIntervals(blocking[s.op]).overlap(s.start, s.end)
		}
	}
	for i, s := range by["wire.guidance"] {
		opNS += s.dur()
		coveredNS += newIntervals(guideKids[i]).overlap(s.start, s.end)
	}
	if opNS > 0 {
		m["trace.coverage"] = float64(coveredNS) / float64(opNS)
		if m["trace.coverage"] < coverageFloor {
			m["trace.unattributed"] = 1
		}
	}
	m["trace.spans"] = float64(len(r.spans))
	return m
}
