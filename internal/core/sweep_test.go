package core

import (
	"sync"
	"testing"

	"partmb/internal/engine"
)

// TestConcurrentSweepsKeepTheirCostHints: two sweeps with different size
// counts share one single-flight runner, as a sweep service's requests do.
// Each must plan with its own cost hint; a hint kept on the runner could be
// taken by the other sweep and index past the end of its size list.
func TestConcurrentSweepsKeepTheirCostHints(t *testing.T) {
	cfg := quickCfg()
	cfg.Iterations, cfg.Warmup = 1, 0
	rn := engine.New(engine.WithSingleFlight())
	for trial := 0; trial < 50; trial++ {
		var wg sync.WaitGroup
		for _, sizes := range [][]int64{{64 << 10}, {64 << 10, 128 << 10, 256 << 10}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := SweepMessageSizes(rn, cfg, sizes)
				if err != nil || len(res) != len(sizes) {
					t.Errorf("sweep of %d sizes: %d results, err %v", len(sizes), len(res), err)
				}
			}()
		}
		wg.Wait()
	}
}
