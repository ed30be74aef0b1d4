package engine

// This file is the engine's dispatch scheduler. The runner used to be a
// for-loop: Grid/Map dispatched cells in strict row-major order, so the
// most expensive cells of a cost-skewed sweep (the paper's sweeps grow
// geometrically in message size) landed last and left every worker lane but
// one idle for the tail of the run. A dispatch Policy decouples *dispatch
// order* from *result order*:
//
//   - InOrder is the historical behavior and the default.
//   - LPT (longest predicted processing time first) dispatches cells in
//     descending predicted cost — the classic 4/3-approximation for
//     minimum-makespan list scheduling — using the runner's CostModel
//     (observed profile, then per-sweep heuristic hint; see cost.go).
//
// Everything observable except wall-clock time is policy-independent:
// results return in index order, memoization and singleflight see the same
// key set, Stats.Runs/Hits match, and deterministic journals are
// byte-identical, because the multiset of (experiment, key, source,
// outcome) resolutions does not depend on which caller of a shared key
// arrives first.
//
// # Fail-fast determinism under out-of-order dispatch
//
// The old argument — "the minimal failing index is always dispatched before
// scheduling stops, because dispatch is in index order" — breaks under LPT:
// when index j fails, a smaller index i < j may not have been dispatched
// yet, and naively cancelling the sweep would report j on some runs and i
// on others, depending on worker interleaving. The runner therefore keeps
// the *failure bound*: the smallest index of any recorded failure.
//
//   - Indices above the bound are never newly dispatched, and running tasks
//     above the bound have their per-task contexts cancelled (fail-fast).
//   - Indices below the bound always dispatch, with contexts the engine
//     never cancels, and run to completion; if one fails, the bound
//     tightens to it.
//
// Invariant: every index smaller than the finally-reported failing index
// was dispatched with a context the engine never cancelled and ran to its
// natural (deterministic) outcome. Hence the reported error is the
// smallest-index real failure of the whole grid, under every policy, every
// worker count, and every interleaving. Cancellation-class outcomes
// (context.Canceled/DeadlineExceeded) keep their PR-2 rank below real
// errors and are tracked under the same bound, so a cell that aborted
// because a sibling failed first can never mask the real failure.
// (Remaining caveat, present before this scheduler too: if a cell
// spontaneously returns a cancellation-class error of its own, a real
// failure at a larger index may or may not have been dispatched before the
// bound tightened; no experiment in this repository does that.)

import (
	"fmt"
	"strings"
)

// Policy names a dispatch order for Grid/Map sweeps.
type Policy string

const (
	// InOrder dispatches cells in ascending index (row-major) order — the
	// default.
	InOrder Policy = "inorder"
	// LPT dispatches cells in descending predicted cost, ties broken by
	// ascending index.
	LPT Policy = "lpt"
)

// Policies lists the selectable dispatch policies.
func Policies() []Policy { return []Policy{InOrder, LPT} }

// ParsePolicy parses a -schedule flag value; "" selects InOrder.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(strings.ToLower(strings.TrimSpace(s))) {
	case "", InOrder:
		return InOrder, nil
	case LPT:
		return LPT, nil
	}
	return "", fmt.Errorf("engine: unknown schedule policy %q (want inorder|lpt)", s)
}

// WithSchedule selects the dispatch policy.
func WithSchedule(p Policy) Option {
	return func(r *Runner) {
		if p != "" {
			r.policy = p
		}
	}
}

// WithCostModel installs the cost model that predicts per-task cost for
// LPT dispatch and collects per-task observations (under every policy, so
// in-order profiling runs warm later LPT runs).
func WithCostModel(m *CostModel) Option {
	return func(r *Runner) { r.cost = m }
}

// Policy returns the runner's dispatch policy.
func (r *Runner) Policy() Policy { return r.policy }

// CostModel returns the runner's cost model (nil when none is installed).
func (r *Runner) CostModel() *CostModel { return r.cost }

// SweepOption configures one Grid or Map sweep.
type SweepOption struct {
	hint func(index int) float64
}

// CostHint makes fn the sweep's cold-cost heuristic: fn(i) returns the
// relative predicted cost of task index i (row-major for Grid) in
// arbitrary units (larger = more expensive; typically message size x
// partition count). The hint is an argument of the sweep it describes, so
// concurrent sweeps on one runner each plan with their own.
func CostHint(fn func(index int) float64) SweepOption {
	return SweepOption{hint: fn}
}

// dispatchPlan is one sweep's dispatch decision.
type dispatchPlan struct {
	// order is the dispatch permutation; nil means ascending index.
	order []int
	// pred is the predicted cost per index in (possibly rescaled)
	// nanoseconds; nil when no cost model and no hint applies.
	pred []float64
}

// predicted returns the plan's prediction for index i (0 when unplanned).
func (p dispatchPlan) predicted(i int) float64 {
	if p.pred == nil {
		return 0
	}
	return p.pred[i]
}

// plan computes the dispatch plan for an n-task sweep under the runner's
// policy, cost model, and the sweep's hint. Predictions are
// computed whenever a model or hint is present — also under InOrder, so
// predicted-vs-actual accounting and profile warm-up do not depend on the
// policy — but the permutation is only built for LPT.
func (r *Runner) plan(n int, exp string, hint func(int) float64) dispatchPlan {
	if r.cost == nil && hint == nil {
		return dispatchPlan{}
	}
	pred := make([]float64, n)
	warm := make([]bool, n)
	nWarm := 0
	for i := 0; i < n; i++ {
		h := 0.0
		if hint != nil {
			h = hint(i)
		}
		if r.cost != nil {
			pred[i], warm[i] = r.cost.Predict(exp, i, h)
		} else {
			if h <= 0 {
				h = 1
			}
			pred[i] = h
		}
		if warm[i] {
			nWarm++
		}
	}
	// A sweep mixing profiled cells (nanoseconds) with cold cells (hint
	// units) must rank both on one axis: rescale the cold predictions by
	// the median ns-per-hint-unit ratio of the profiled cells.
	if r.cost != nil && nWarm > 0 && nWarm < n && hint != nil {
		var ratios []float64
		for i := 0; i < n; i++ {
			if warm[i] {
				if h := hint(i); h > 0 {
					ratios = append(ratios, pred[i]/h)
				}
			}
		}
		if scale := median(ratios); scale > 0 {
			for i := 0; i < n; i++ {
				if !warm[i] {
					pred[i] *= scale
				}
			}
		}
	}
	r.mu.Lock()
	r.costWarm += int64(nWarm)
	r.costCold += int64(n - nWarm)
	r.mu.Unlock()
	p := dispatchPlan{pred: pred}
	if r.policy == LPT {
		p.order = LPTOrder(pred)
	}
	return p
}

// median returns the median of vals (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ { // insertion sort; ratio sets are tiny
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
