package main

import (
	"crypto/sha256"
	"runtime"
	"time"

	"partmb/internal/stats"
)

// Host-speed calibration. The benchmark runs on shared virtual machines
// whose speed drifts by tens of percent over minutes, with little or no
// reported steal (other tenants' cache and memory traffic, clock changes).
// A run's medians are steady, but runs minutes apart are not: the drift
// moves every host time by about the same factor. So a plain run also
// times a fixed calibration kernel, made of benchmark code only, between
// its passes, and reports each end-to-end time scaled by
//
//	factor = ref_s / median(calibration samples)
//
// (rates divided by it): host seconds on a host where the kernel takes
// ref_s, its median on the host the benchmark was defined on. A change to
// the program cannot move the kernel, so it moves the scaled metrics as it
// moves the raw ones; the factor and the samples are in the run record, so
// the raw values can be recovered.

// calBlock is what the kernel hashes. It is a package-level array, so it
// lives outside the Go heap and peak_heap_mib does not see it.
var calBlock [64 << 10]byte

const (
	// calHashes × 64 KiB of SHA-256: straight-line compute.
	calHashes = 256
	// calRoundTrips goroutine handoffs over unbuffered channels: the
	// scheduler and futex path the simulations' procs and the server's
	// connections lean on.
	calRoundTrips = 20000
	// calRefS is ref_s: the kernel's median host time on a 2-vCPU Xeon
	// VM.
	calRefS = 0.027
)

// calKernel is the calibration kernel.
func calKernel() {
	for i := 0; i < calHashes; i++ {
		sum := sha256.Sum256(calBlock[:])
		calBlock[i] ^= sum[0]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		defer close(pong)
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < calRoundTrips; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong // the echo goroutine has ended
}

// Calibration is the run record's account of the host-speed factor.
type Calibration struct {
	RefS    float64   `json:"ref_s"`
	MedianS float64   `json:"median_s"`
	Factor  float64   `json:"factor"`
	Samples []float64 `json:"samples_s"`
}

// calibrate takes one calibration sample. It first collects the garbage
// the preceding pass left, so the kernel does not share the host with the
// collector and every pass starts from a collected heap.
func (b *bench) calibrate() {
	runtime.GC()
	start := time.Now()
	calKernel()
	b.cal = append(b.cal, time.Since(start).Seconds())
}

// calibration summarizes the run's samples (nil when none were taken).
func (b *bench) calibration() *Calibration {
	if len(b.cal) == 0 {
		return nil
	}
	c := &Calibration{RefS: calRefS, MedianS: stats.Median(b.cal), Samples: b.cal}
	c.Factor = c.RefS / c.MedianS
	return c
}

// scaleByUnit applies the host-speed factor to an end-to-end metric: times
// are multiplied by it, rates divided, other units left alone.
func scaleByUnit(m Metric, factor float64) Metric {
	switch m.Unit {
	case "s", "ms":
		m.Value *= factor
	case "1/s":
		m.Value /= factor
	}
	return m
}
