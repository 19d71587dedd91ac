package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samples collects one latency distribution. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) { s.add(float64(d) / float64(unit)) }

// values copies the samples in the order they were added.
func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

func (s *samples) sorted() []float64 { return sortedCopy(s.values()) }

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile is the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// peakSampler polls the live heap (and any extra gauges) until stopped and
// keeps the peaks.
type peakSampler struct {
	stop     chan struct{}
	done     chan struct{}
	heap     atomic.Uint64
	extra    func() int64
	extraMax atomic.Int64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startPeakSampler(every time.Duration, extra func() int64) *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{}), extra: extra}
	go func() {
		defer close(p.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > p.heap.Load() {
				p.heap.Store(v)
			}
			if p.extra != nil {
				if v := p.extra(); v > p.extraMax.Load() {
					p.extraMax.Store(v)
				}
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// peakNow returns the peak live heap so far, including this instant.
func (p *peakSampler) peakNow() uint64 {
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(sample)
	return max(p.heap.Load(), sample[0].Value.Uint64())
}

// finish stops the sampler and returns the peak live heap in bytes and the
// peak of the extra gauge.
func (p *peakSampler) finish() (uint64, int64) {
	close(p.stop)
	<-p.done
	return p.heap.Load(), p.extraMax.Load()
}
