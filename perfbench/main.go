// Command perfbench is the repository's benchmark. It runs one of three
// workloads in-process against the public packages of internal/, checks
// that the workload's outputs are correct, and prints its metrics.
//
//	perfbench --workload paper-sweep --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with spans recorded around every layer call, plus the
// public-API probes, and reports the per-layer metrics. The last line of
// standard output is the result object; the line before it is the full
// run record, which is also written to the --out directory. See README.md
// for the metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"paper-sweep":     runPaperSweep,
	"sharded-stencil": runShardedStencil,
	"sweepd-mix":      runSweepdMix,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-sweep|sharded-stencil|sweepd-mix")
		seed    = flag.Int64("seed", 42, "platform noise seed (and request-mix seed for sweepd-mix)")
		seconds = flag.Int("seconds", 30, "how long the measured body runs")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for run records, span files and scratch state")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want paper-sweep|sharded-stencil|sweepd-mix)", *name))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("bad run shape: --seconds %d --trace %d", *seconds, *traced))
	}
	p, err := loadParams()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out, p)
	if err := run(b); err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	rec, err := b.finish()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traced))
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		fatal(err)
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	fmt.Println(string(res))
}

// bench is the state one run accumulates: configuration, the attempted
// and failed operation counts, metrics, and (traced runs only) spans and
// probe results.
type bench struct {
	workload string
	seed     int64
	body     time.Duration
	traced   bool
	out      string
	params   Params
	start    time.Time

	// CPU tick counters at the start, for the run's host steal share.
	steal0, total0 int64
	cpuOK          bool

	attempted, failed int64
	failures          []string
	metrics           map[string]Metric
	spans             *spanLog
	probes            []ProbeResult
	workloadParams    any
	// cal holds the calibration kernel's host times (plain runs).
	cal []float64
}

func newBench(workload string, seed int64, body time.Duration, traced bool, out string, p Params) *bench {
	b := &bench{
		workload: workload, seed: seed, body: body, traced: traced, out: out,
		params: p, start: time.Now(), metrics: map[string]Metric{},
	}
	if traced {
		b.spans = newSpanLog()
	}
	b.steal0, b.total0, b.cpuOK = cpuTimes()
	return b
}

// set records a metric value. Metric names and units must match the
// tables in metrics.go; finish rejects anything else.
func (b *bench) set(name string, v float64) { b.metrics[name] = Metric{Value: v} }

// op counts one attempted operation and, when err is non-nil, one failed
// operation. The first few failures are kept in the run record.
func (b *bench) op(err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, err.Error())
	}
}

// finish checks the metric set against the mode's table and assembles the
// run record. A metric of the mode's table that the workload exercises but
// did not report is a benchmark bug; a per-layer metric of a layer the
// workload does not reach is reported as 0.
func (b *bench) finish() (*Record, error) {
	table, mode := endToEnd, "end-to-end"
	if b.traced {
		table, mode = perLayer, "per-layer"
	}
	cal := b.calibration()
	if !b.traced && cal == nil {
		return nil, fmt.Errorf("no calibration sample was taken")
	}
	out := map[string]Metric{}
	for _, d := range table {
		m, ok := b.metrics[d.Name]
		if !ok && d.exercisedBy(b.workload) {
			return nil, fmt.Errorf("%s metric %s was not measured", mode, d.Name)
		}
		m.Unit = d.Unit
		if !b.traced {
			m = scaleByUnit(m, cal.Factor)
		}
		out[d.Name] = m
	}
	var extra []string
	for name := range b.metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not in the %s table", extra, mode)
	}
	if b.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	rec := &Record{
		Schema: recordSchema,
		Config: b.runConfig(),
		Result: Result{
			Correct:   b.failed == 0,
			Attempted: b.attempted,
			Failed:    b.failed,
			Metrics:   out,
		},
		Failures:      b.failures,
		Probes:        b.probes,
		Calibration:   cal,
		HostStealFrac: stealSince(b.steal0, b.total0, b.cpuOK),
	}
	if b.spans != nil {
		path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.spans.write(path); err != nil {
			return nil, err
		}
		rec.SpanFile = path
		rec.Spans = b.spans.len()
	}
	return rec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
