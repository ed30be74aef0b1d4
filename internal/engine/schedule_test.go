package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": InOrder, "inorder": InOrder, "lpt": LPT, " LPT ": LPT,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if got := Policies(); len(got) != 2 || got[0] != InOrder || got[1] != LPT {
		t.Fatalf("Policies() = %v", got)
	}
}

func TestLPTDispatchOrderDescendingCost(t *testing.T) {
	// One worker serializes dispatch, so the observed call order IS the
	// dispatch order: descending hint cost, which here means reverse index.
	rn := New(Workers(1), WithoutCache(), WithSchedule(LPT), WithCostModel(NewCostModel()))
	var mu sync.Mutex
	var order []int
	if _, err := rn.Map(context.Background(), 8, func(_ context.Context, i int) (any, error) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return nil, nil
	}, CostHint(func(i int) float64 { return float64(i + 1) })); err != nil {
		t.Fatal(err)
	}
	want := []int{7, 6, 5, 4, 3, 2, 1, 0}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestPolicyWorkersInvariantResults is the core scheduling invariant: the
// dispatch policy and worker count may only change wall-clock time, never
// results or cell-resolution counters.
func TestPolicyWorkersInvariantResults(t *testing.T) {
	run := func(policy Policy, workers int) ([]any, Stats) {
		rn := New(Workers(workers), WithSchedule(policy), WithCostModel(NewCostModel()))
		res, err := rn.Map(context.Background(), 40, func(_ context.Context, i int) (any, error) {
			// Keyed through the cache with a shared key per index pair, so
			// memoization and singleflight are exercised under reordering.
			return rn.Do(fmt.Sprintf("cell-%d", i/2), func() (any, error) { return (i / 2) * 3, nil })
		}, CostHint(func(i int) float64 { return float64(int64(1) << (i % 12)) }))
		if err != nil {
			t.Fatalf("%s workers=%d: %v", policy, workers, err)
		}
		return res, rn.Stats()
	}
	wantRes, wantSt := run(InOrder, 1)
	for _, policy := range Policies() {
		for _, workers := range []int{1, 2, 8} {
			res, st := run(policy, workers)
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("%s workers=%d changed results", policy, workers)
			}
			if st.Runs != wantSt.Runs || st.Hits != wantSt.Hits || st.Cells != wantSt.Cells {
				t.Fatalf("%s workers=%d counters (runs %d hits %d cells %d) differ from in-order/1 (runs %d hits %d cells %d)",
					policy, workers, st.Runs, st.Hits, st.Cells, wantSt.Runs, wantSt.Hits, wantSt.Cells)
			}
		}
	}
}

// TestLPTReportsSmallestIndexError pins the fail-fast invariant documented
// in this file: under LPT the large failing indices dispatch (and report)
// first, yet the error that surfaces must be the smallest failing index,
// on every trial.
func TestLPTReportsSmallestIndexError(t *testing.T) {
	fail := map[int]bool{5: true, 17: true, 30: true}
	for trial := 0; trial < 10; trial++ {
		rn := New(Workers(8), WithoutCache(), WithSchedule(LPT), WithCostModel(NewCostModel()))
		bigFirst := CostHint(func(i int) float64 { return float64(i + 1) })
		_, err := rn.Map(context.Background(), 32, func(_ context.Context, i int) (any, error) {
			if fail[i] {
				if i == 5 {
					// The smallest failure also completes last.
					time.Sleep(2 * time.Millisecond)
				}
				return nil, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		}, bigFirst)
		if err == nil || err.Error() != "cell 5 failed" {
			t.Fatalf("trial %d: err = %v, want cell 5 failed", trial, err)
		}
	}
}

func TestScheduleStatsAccounting(t *testing.T) {
	cm := NewCostModel()
	sweep := func(hinted bool) Stats {
		rn := New(Workers(2), WithoutCache(), WithSchedule(LPT), WithCostModel(cm))
		rn.SetExperiment("sched-test")
		var opts []SweepOption
		if hinted {
			opts = append(opts, CostHint(func(i int) float64 { return float64(i + 1) }))
		}
		if _, err := rn.Map(context.Background(), 6, func(_ context.Context, i int) (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		}, opts...); err != nil {
			t.Fatal(err)
		}
		return rn.Stats()
	}

	cold := sweep(true)
	if cold.Schedule != LPT {
		t.Fatalf("Schedule = %q, want lpt", cold.Schedule)
	}
	if cold.Makespan <= 0 || len(cold.LaneBusy) != 2 || cold.Utilization <= 0 || cold.Utilization > 100 {
		t.Fatalf("scheduling fields not populated: %+v", cold)
	}
	if cold.ActualCost <= 0 || cold.PredictedCost <= 0 {
		t.Fatalf("cost totals not populated: predicted %v actual %v", cold.PredictedCost, cold.ActualCost)
	}
	if cold.CostCold != 6 || cold.CostWarm != 0 {
		t.Fatalf("cold sweep counted %d warm / %d cold, want 0/6", cold.CostWarm, cold.CostCold)
	}
	if cm.Len() != 6 {
		t.Fatalf("cost model profiled %d tasks, want 6", cm.Len())
	}
	s := cold.String()
	if !strings.Contains(s, "schedule lpt: makespan") || !strings.Contains(s, "predicted") {
		t.Fatalf("Stats.String() missing scheduling report: %q", s)
	}

	// Second, unhinted sweep on the same model and label: every prediction
	// now comes from the profile.
	warm := sweep(false)
	if warm.CostWarm != 6 || warm.CostCold != 0 {
		t.Fatalf("warm sweep counted %d warm / %d cold, want 6/0", warm.CostWarm, warm.CostCold)
	}
}

// TestCostHintConsumedBySweep: a hint applies to exactly the sweep it is
// passed to — even an empty one — and never leaks into the next.
func TestCostHintConsumedBySweep(t *testing.T) {
	hint := CostHint(func(i int) float64 { return 100 })
	nop := func(_ context.Context, i int) (any, error) { return nil, nil }
	rn := New(Workers(1), WithoutCache())
	if _, err := rn.Map(context.Background(), 0, nil, hint); err != nil {
		t.Fatal(err)
	}
	if _, err := rn.Map(context.Background(), 3, nop); err != nil {
		t.Fatal(err)
	}
	if got := rn.Stats().PredictedCost; got != 0 {
		t.Fatalf("hint leaked past the empty sweep: predicted cost %v", got)
	}

	if _, err := rn.Map(context.Background(), 3, nop, hint); err != nil {
		t.Fatal(err)
	}
	if _, err := rn.Map(context.Background(), 3, nop); err != nil {
		t.Fatal(err)
	}
	if got := rn.Stats().PredictedCost; got != 300*time.Nanosecond {
		t.Fatalf("hinted then unhinted sweeps predicted %v, want 300ns", got)
	}
}
