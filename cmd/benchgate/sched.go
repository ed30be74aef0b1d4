package main

// This file is the scheduler gate: benchgate's makespan and
// worker-utilization entries. The engine's LPT dispatch policy (see
// internal/engine/schedule.go) exists to cut sweep makespan on cost-skewed
// grids; this gate pins that property in CI the way the alloc gate pins
// allocation-free paths.
//
// The measured workload is synthetic on purpose: cells *sleep* for a
// cost-skewed duration ladder shaped like the quick metric sweep (geometric
// sizes x a few partition counts), so lanes overlap even on a single-core
// CI runner and the makespan difference between dispatch policies is a
// property of the schedule, not of the host's core count. Sleep time is
// also hardware-independent, which is why the sched/* entries are marked
// Fixed and skip the calibration normalization real figure timings get.
//
// Three variants run, all at a pinned worker count:
//
//	sched/inorder   row-major dispatch (the engine default)
//	sched/lpt-cold  LPT from the per-sweep size heuristic (cold profile)
//	sched/lpt-warm  LPT from a cost profile persisted by the inorder run
//	                and reloaded through the disk roundtrip (warm profile)
//
// The gate fails when the warm LPT makespan does not beat inorder by the
// required margin — the acceptance bar for cost-model-driven scheduling.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"partmb/internal/engine"
)

// schedWorkers pins the lane count of the scheduler benchmark; the makespan
// ratio between policies depends on it, so it is not operator-tunable.
const schedWorkers = 8

// schedDurations is the synthetic cost ladder: nine geometric "sizes"
// (250us..64ms, the shape of the quick metric sweep's 32KiB..8MiB axis)
// times three same-cost columns (the partition-count axis). Row-major
// dispatch puts the three most expensive cells last, which is exactly the
// idle-tail pathology LPT removes.
func schedDurations() []time.Duration {
	var out []time.Duration
	for r := 0; r < 9; r++ {
		for c := 0; c < 3; c++ {
			out = append(out, (250*time.Microsecond)<<r)
		}
	}
	return out
}

// measureSched runs the synthetic sweep once under the given policy and
// cost model and returns the engine's measured makespan and worker
// utilization. With hinted set, the sweep carries the duration ladder as
// its cold-cost heuristic (what real sweeps supply); without it the model's
// profile is the only prediction source.
func measureSched(policy engine.Policy, cm *engine.CostModel, hinted bool) (time.Duration, float64, error) {
	durs := schedDurations()
	rn := engine.New(
		engine.Workers(schedWorkers),
		engine.WithoutCache(),
		engine.WithSchedule(policy),
		engine.WithCostModel(cm),
	)
	rn.SetExperiment("sched")
	var opts []engine.SweepOption
	if hinted {
		opts = append(opts, engine.CostHint(func(i int) float64 { return float64(durs[i]) }))
	}
	_, err := rn.Map(context.Background(), len(durs), func(ctx context.Context, i int) (any, error) {
		time.Sleep(durs[i])
		return nil, nil
	}, opts...)
	if err != nil {
		return 0, 0, err
	}
	st := rn.Stats()
	return st.Makespan, st.Utilization, nil
}

// runSchedBenchmarks measures the three scheduler variants (median of reps)
// and returns their entries. The warm variant's cost model is persisted by
// the inorder runs and reloaded from disk, so the profile save/load path is
// exercised end to end.
func runSchedBenchmarks(reps int, progress io.Writer) ([]Entry, error) {
	if reps < 1 {
		reps = 1
	}
	profile := engine.NewCostModel()
	variants := []struct {
		name   string
		policy engine.Policy
		hinted bool
		cold   bool
		warm   bool
	}{
		{"sched/inorder", engine.InOrder, true, false, false},
		{"sched/lpt-cold", engine.LPT, true, true, false},
		{"sched/lpt-warm", engine.LPT, false, false, true},
	}
	var entries []Entry
	for _, v := range variants {
		cm := profile
		if v.cold {
			// A fresh model, so predictions come from the hint alone — the
			// inorder runs above have already warmed the shared profile.
			cm = engine.NewCostModel()
		}
		if v.warm {
			// Roundtrip the profile the inorder runs observed through the
			// on-disk format, like a second CLI invocation would see it.
			dir, err := os.MkdirTemp("", "benchgate-cost-")
			if err != nil {
				return nil, fmt.Errorf("benchgate: %w", err)
			}
			path := filepath.Join(dir, "cost_profile.json")
			if err := profile.Save(path); err != nil {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("benchgate: %w", err)
			}
			cm = engine.LoadCostProfile(path)
			os.RemoveAll(dir)
			if cm.Len() == 0 {
				return nil, fmt.Errorf("benchgate: cost profile roundtrip lost all %d observations", profile.Len())
			}
		}
		var spans, utils []float64
		for rep := 0; rep < reps; rep++ {
			mk, util, err := measureSched(v.policy, cm, v.hinted)
			if err != nil {
				return nil, fmt.Errorf("benchgate: %s: %w", v.name, err)
			}
			spans = append(spans, float64(mk))
			utils = append(utils, util)
		}
		e := Entry{Name: v.name, NsOp: median(spans), Util: median(utils), Fixed: true}
		entries = append(entries, e)
		if progress != nil {
			fmt.Fprintf(progress, "benchgate: %s: makespan %.1f ms (median of %d), %.0f%% lane utilization\n",
				e.Name, e.NsOp/1e6, reps, 100*e.Util)
		}
	}
	return entries, nil
}

// median returns the middle of vals without mutating them (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// schedGate enforces the scheduling acceptance bar on a measured file: the
// warm-profile LPT makespan must undercut the inorder makespan by at least
// minImprove (a fraction; 0.2 = 20% faster). Missing entries fail loudly —
// a gate that silently skips is no gate.
func schedGate(f File, minImprove float64) error {
	var inorder, warm float64
	for _, e := range f.Entries {
		switch e.Name {
		case "sched/inorder":
			inorder = e.NsOp
		case "sched/lpt-warm":
			warm = e.NsOp
		}
	}
	if inorder <= 0 || warm <= 0 {
		return fmt.Errorf("benchgate: sched gate: missing sched/inorder or sched/lpt-warm entries")
	}
	ratio := warm / inorder
	if ratio > 1-minImprove {
		return fmt.Errorf("benchgate: sched gate: lpt-warm makespan is %.2fx inorder, need <= %.2fx (>= %.0f%% improvement)",
			ratio, 1-minImprove, minImprove*100)
	}
	return nil
}
