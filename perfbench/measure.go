package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"partmb/internal/stats"
)

// heapSampler tracks the peak live-plus-garbage heap (the bytes held by
// heap objects) by sampling runtime/metrics on its own goroutine. take
// returns the peak since the previous take, so a workload can report one
// peak per pass and the median over passes.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				v := readHeap()
				h.mu.Lock()
				if v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// take returns the peak since the last take, in MiB, and restarts the
// peak from the current heap size.
func (h *heapSampler) take() float64 {
	v := readHeap()
	h.mu.Lock()
	defer h.mu.Unlock()
	if v > h.peak {
		h.peak = v
	}
	p := h.peak
	h.peak = v
	return float64(p) / (1 << 20)
}

// close stops the sampling goroutine and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// rtSnap is a snapshot of the Go runtime counters the go.* metrics use.
type rtSnap struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
	gcCycles        uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return rtSnap{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjects: s[3].Value.Uint64(),
		gcCycles:     s[4].Value.Uint64(),
	}
}

// setGoMetrics reports the go.* metrics for the interval from a to now,
// normalized by the number of operations the interval covered.
func (b *bench) setGoMetrics(a rtSnap, ops int64) {
	z := readRuntime()
	if ops < 1 {
		ops = 1
	}
	frac := 0.0
	if cpu := z.totalCPU - a.totalCPU; cpu > 0 {
		frac = (z.gcCPU - a.gcCPU) / cpu
	}
	b.set("go.gc_cpu_frac", frac)
	b.set("go.alloc_mib", float64(z.allocBytes-a.allocBytes)/(1<<20)/float64(ops))
	b.set("go.gc_cycles", float64(z.gcCycles-a.gcCycles)/float64(ops))
}

// percentile is stats.Percentile of an unsorted sample.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p99Window is the sample count p99_ms takes each window's percentile
// over: ten samples lie beyond a window's p99.
const p99Window = 1000

// windowedP99 is the median, over consecutive windows of n samples (in
// the order they were taken), of each window's 99th percentile. A host
// stall inflates the windows it lands in, not the run's figure; n is
// chosen so each window has about ten samples beyond its p99 where the
// workload allows. Fewer than n samples form one window.
func windowedP99(xs []float64, n int) float64 {
	if len(xs) <= n {
		return percentile(xs, 99)
	}
	var ps []float64
	for i := 0; i+n <= len(xs); i += n {
		ps = append(ps, percentile(xs[i:i+n], 99))
	}
	return stats.Median(ps)
}
