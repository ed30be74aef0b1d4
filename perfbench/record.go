package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The run record, modelled on the run-configuration / result split of
// MPI benchmark harnesses: the configuration says exactly what ran where,
// the result says what it measured. Plain and traced runs write the same
// schema, so two records can be diffed field by field.

// recordSchema versions the Record layout.
const recordSchema = 1

// Record is one run's full output.
type Record struct {
	Schema int       `json:"schema"`
	Config RunConfig `json:"config"`
	Result Result    `json:"result"`
	// Failures describes the first failed operations, if any.
	Failures []string `json:"failures,omitempty"`
	// Probes holds the public-API probe statistics (traced runs).
	Probes []ProbeResult `json:"probes,omitempty"`
	// HostStealFrac is the share of CPU time the hypervisor withheld
	// from this machine during the run, from /proc/stat (-1 where the
	// kernel does not report it). Host steal is the main source of
	// run-to-run spread on a shared virtual machine.
	HostStealFrac float64 `json:"host_steal_frac"`
	// Calibration is the host-speed factor plain runs scale their
	// end-to-end times by (calibrate.go).
	Calibration *Calibration `json:"calibration,omitempty"`
	// SpanFile and Spans name the span file and its span count (traced
	// runs).
	SpanFile string `json:"span_file,omitempty"`
	Spans    int    `json:"spans,omitempty"`
}

// RunConfig records what ran and on what.
type RunConfig struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Params     any    `json:"params"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Start      string `json:"start"`
}

// Result is the object the benchmark prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ProbeResult summarizes one public-API probe: per-call host time and
// allocations over interleaved samples, with Tukey's trimean as the centre
// and the IID flag of the per-sample times.
type ProbeResult struct {
	Name       string  `json:"name"`
	Samples    int     `json:"samples"`
	OpsPerSamp int     `json:"ops_per_sample"`
	NS         float64 `json:"ns_per_op"`
	Allocs     float64 `json:"allocs_per_op"`
	IID        bool    `json:"iid"`
}

func (b *bench) runConfig() RunConfig {
	return RunConfig{
		Workload:   b.workload,
		Seed:       b.seed,
		Seconds:    int(b.body / time.Second),
		Traced:     b.traced,
		Params:     b.workloadParams,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
		Commit:     commit(),
		Start:      b.start.UTC().Format(time.RFC3339),
	}
}

// cpuTimes returns the machine's cumulative steal and total CPU time in
// clock ticks, from the first line of /proc/stat (ok false where the
// kernel does not report steal).
func cpuTimes() (steal, total int64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
	}
	return steal, total, true
}

// stealSince returns the steal share of CPU time since (steal0, total0).
func stealSince(steal0, total0 int64, ok0 bool) float64 {
	steal, total, ok := cpuTimes()
	if !ok || !ok0 || total <= total0 {
		return -1
	}
	return float64(steal-steal0) / float64(total-total0)
}

// cpuModel reads the host CPU's model name ("unknown" where the kernel
// does not expose one).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the checkout's git HEAD, else
// "unknown" (an exported tree has no history).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
