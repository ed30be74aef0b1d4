package engine

// This file is the engine's cost model: the source of the per-task cost
// predictions that drive the LPT dispatch policy (see schedule.go).
//
// Two prediction sources are layered:
//
//   - Observed profile: every completed task reports its host wall time to
//     the runner's CostModel, keyed by (experiment label, task index). The
//     model keeps the *peak* observed cost per task — a memo- or disk-cache
//     replay resolves in microseconds, and folding that into a mean would
//     erase the compute cost a cold run measured; the peak keeps cold-start
//     truth across warm runs. Profiles persist as a schema-versioned JSON
//     file next to the disk cache (atomic writes, corrupt-entry recovery,
//     the same discipline as disk.go), so the second run of a sweep
//     schedules with the first run's measured costs.
//   - Heuristic hints: experiments supply a relative per-index cost
//     heuristic (typically message size x partition count, the dominant
//     terms of a LogGP-style cost model) with each sweep, as a CostHint
//     option. Cold cells fall back to the hint; when a sweep mixes profiled
//     and cold cells, hint units are rescaled to observed nanoseconds by
//     the median profiled-ns/hint ratio so both rank on one axis.
//
// Predictions only ever reorder dispatch. A wrong prediction costs wall
// time, never correctness: results, memoization, and error selection are
// policy-independent (see schedule.go).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// CostProfileSchema versions the persisted cost-profile format. Files
// written under a different schema are ignored (the model starts cold),
// never an error.
const CostProfileSchema = 1

// maxCostNS bounds persisted and observed costs to a sane range; entries
// beyond it (overflowed or corrupt) are clamped or dropped on load.
const maxCostNS = float64(1e18) // ~31 years; far beyond any real cell

// costObs is one task's aggregated observation.
type costObs struct {
	// N counts observations folded in.
	N int64 `json:"n"`
	// PeakNS is the largest host wall time observed for the task.
	PeakNS float64 `json:"peak_ns"`
	// Samples totals the adaptive sampling draws the task's cell reported
	// (see ObserveSamples). Zero — and omitted from persisted profiles, so
	// adaptive-off profile files keep their exact bytes — when the cell
	// never sampled.
	Samples int64 `json:"samples,omitempty"`
}

// sampled mirrors the observability layer's Sampled interface structurally,
// so the engine can record adaptive sample counts without importing it.
type sampled interface {
	SampleStats() (n int, relCI float64, reason string)
}

// CostModel predicts per-task host cost from observed profiles, warm-started
// from a persisted profile file. It is safe for concurrent use; the zero
// value is not usable — call NewCostModel or LoadCostProfile.
type CostModel struct {
	mu   sync.Mutex
	exps map[string]map[int]*costObs
}

// NewCostModel returns an empty (cold) cost model.
func NewCostModel() *CostModel {
	return &CostModel{exps: map[string]map[int]*costObs{}}
}

// Observe folds one completed task's host wall time into the profile.
func (m *CostModel) Observe(exp string, index int, host time.Duration) {
	if m == nil || index < 0 {
		return
	}
	ns := float64(host.Nanoseconds())
	if ns < 0 || ns > maxCostNS {
		return
	}
	m.mu.Lock()
	cells := m.exps[exp]
	if cells == nil {
		cells = map[int]*costObs{}
		m.exps[exp] = cells
	}
	o := cells[index]
	if o == nil {
		o = &costObs{}
		cells[index] = o
	}
	o.N++
	if ns > o.PeakNS {
		o.PeakNS = ns
	}
	m.mu.Unlock()
}

// ObserveSamples folds an adaptive cell's actual sample count into the
// task's profile entry. The count rides along with the peak cost, so a
// profile consumer can tell whether an expensive cell was expensive per
// sample or merely sampled many times.
func (m *CostModel) ObserveSamples(exp string, index, n int) {
	if m == nil || index < 0 || n <= 0 {
		return
	}
	m.mu.Lock()
	cells := m.exps[exp]
	if cells == nil {
		cells = map[int]*costObs{}
		m.exps[exp] = cells
	}
	o := cells[index]
	if o == nil {
		o = &costObs{}
		cells[index] = o
	}
	o.Samples += int64(n)
	m.mu.Unlock()
}

// Samples reports the total adaptive sample count recorded for a task (0
// when the task never sampled or is unknown).
func (m *CostModel) Samples(exp string, index int) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if o := m.exps[exp][index]; o != nil {
		return o.Samples
	}
	return 0
}

// Predict returns the predicted host cost of task index under experiment
// exp in nanoseconds, and whether the prediction came from the observed
// profile (warm) rather than the hint (cold). A hint <= 0 means "no
// heuristic": cold cells then predict a constant, which makes LPT degrade
// gracefully to in-order dispatch.
func (m *CostModel) Predict(exp string, index int, hint float64) (ns float64, warm bool) {
	if m != nil {
		m.mu.Lock()
		if o := m.exps[exp][index]; o != nil && o.N > 0 {
			ns := o.PeakNS
			m.mu.Unlock()
			return ns, true
		}
		m.mu.Unlock()
	}
	if hint > 0 && hint <= maxCostNS {
		return hint, false
	}
	return 1, false
}

// Len reports the number of profiled tasks across all experiments.
func (m *CostModel) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, cells := range m.exps {
		n += len(cells)
	}
	return n
}

// costProfileFile is the on-disk form: indexes become string keys because
// JSON object keys must be strings.
type costProfileFile struct {
	Schema      int                           `json:"schema"`
	Experiments map[string]map[string]costObs `json:"experiments"`
}

// LoadCostProfile opens the profile at path, warm-starting a model from
// every recoverable entry. A missing, unreadable, or corrupt file yields a
// cold model, not an error — the profile is an optimization artifact, and
// recomputing it costs one sweep; corrupt individual entries (bad index,
// NaN/Inf/negative/overflowing cost) are skipped the same way disk.go
// recovers corrupt cache cells.
func LoadCostProfile(path string) *CostModel {
	data, err := os.ReadFile(path)
	if err != nil {
		return NewCostModel()
	}
	return ParseCostProfile(data)
}

// ParseCostProfile decodes a profile document, recovering what it can. It
// never fails and never panics: anything unparseable loads as cold.
func ParseCostProfile(data []byte) *CostModel {
	m := NewCostModel()
	var f costProfileFile
	if err := json.Unmarshal(data, &f); err != nil || f.Schema != CostProfileSchema {
		return m
	}
	for exp, cells := range f.Experiments {
		for key, o := range cells {
			index, err := strconv.Atoi(key)
			if err != nil || index < 0 {
				continue
			}
			if o.N <= 0 || math.IsNaN(o.PeakNS) || math.IsInf(o.PeakNS, 0) ||
				o.PeakNS <= 0 || o.PeakNS > maxCostNS {
				continue
			}
			cur := o
			if cur.Samples < 0 {
				cur.Samples = 0
			}
			m.mu.Lock()
			if m.exps[exp] == nil {
				m.exps[exp] = map[int]*costObs{}
			}
			m.exps[exp][index] = &costObs{N: cur.N, PeakNS: cur.PeakNS, Samples: cur.Samples}
			m.mu.Unlock()
		}
	}
	return m
}

// Save persists the profile atomically (temp file + rename), creating
// parent directories as needed. An empty model writes an empty profile, so
// a cold run truthfully records "nothing observed yet".
func (m *CostModel) Save(path string) error {
	f := costProfileFile{Schema: CostProfileSchema, Experiments: map[string]map[string]costObs{}}
	m.mu.Lock()
	for exp, cells := range m.exps {
		out := make(map[string]costObs, len(cells))
		for index, o := range cells {
			out[strconv.Itoa(index)] = *o
		}
		f.Experiments[exp] = out
	}
	m.mu.Unlock()
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("engine: encoding cost profile: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: saving cost profile: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("engine: saving cost profile: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: saving cost profile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: saving cost profile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("engine: saving cost profile: %w", err)
	}
	return nil
}

// ModelMakespan computes the makespan an ideal w-lane pool would achieve
// running the given per-task costs in the given dispatch order, assigning
// each task to the earliest-free lane (list scheduling — exactly the
// engine's lane discipline with zero dispatch overhead). It lets a 1-core
// host reason about a w-way schedule from measured costs: benchgate and
// EXPERIMENTS.md report modeled makespans next to wall-clock ones.
func ModelMakespan(costs []float64, order []int, w int) float64 {
	if w < 1 {
		w = 1
	}
	lanes := make([]float64, w)
	var makespan float64
	run := func(cost float64) {
		l := minLane(lanes)
		lanes[l] += cost
		if lanes[l] > makespan {
			makespan = lanes[l]
		}
	}
	if order == nil {
		for _, c := range costs {
			run(c)
		}
		return makespan
	}
	for _, i := range order {
		run(costs[i])
	}
	return makespan
}

// minLane returns the index of the earliest-free lane.
func minLane(lanes []float64) int {
	best := 0
	for i, t := range lanes {
		if t < lanes[best] {
			best = i
		}
	}
	return best
}

// LPTOrder returns the longest-predicted-first dispatch permutation for the
// given per-index costs: indices sorted by cost descending, ties broken by
// the smaller index — fully deterministic in the costs.
func LPTOrder(costs []float64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := costs[order[a]], costs[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	return order
}
