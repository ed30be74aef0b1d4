package main

import (
	"fmt"
	"time"

	"partmb/internal/noise"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
	"partmb/internal/trace"
)

// sharded-stencil: one 512-rank Halo3D and one 256-rank Sweep3D per pass,
// each on an 8-shard group (block mapping, stealing on) over a Dragonfly+
// fabric whose wings match the shard blocks. No engine: the simulations
// are called directly.

// stencilP99Window is the pass count p99_ms takes each window's
// percentile over: a pass is long, so a run holds only a few dozen.
const stencilP99Window = 10

type stencilRun struct {
	b     *bench
	halo  patterns.HaloConfig
	sweep patterns.SweepConfig
	// ref holds the shards = 1 results every pass must reproduce.
	refHalo, refSweep *patterns.Result
}

// stencilPass is one pass's results and host times.
type stencilPass struct {
	halo, sweep         *patterns.Result
	haloWall, sweepWall time.Duration
}

func (p stencilPass) wall() time.Duration { return p.haloWall + p.sweepWall }

func runShardedStencil(b *bench) error {
	p := b.params.ShardedStencil
	r, err := newStencilRun(b, p)
	if err != nil {
		return err
	}
	b.workloadParams = p
	// The sequential reference the sharded runs must reproduce exactly.
	ref := r.halo
	ref.Shards = 1
	if r.refHalo, err = patterns.RunHalo3D(ref); err != nil {
		return err
	}
	refS := r.sweep
	refS.Shards = 1
	if r.refSweep, err = patterns.RunSweep3D(refS); err != nil {
		return err
	}
	if b.traced {
		// One unmeasured pass lets the heap and lazy state settle; its
		// output is still checked.
		if _, err := r.pass(nil, nil); err != nil {
			return err
		}
		return r.traced()
	}
	// Set-up passes, checked like the others, also settle the heap.
	var setups []float64
	for i := 0; i < max(p.SetupReps, 1); i++ {
		recH, recS := new(trace.Recorder), new(trace.Recorder)
		out, err := r.pass(recH, recS)
		if err != nil {
			return err
		}
		hs, err := callSetup(out.haloWall, recH.Events())
		if err != nil {
			return fmt.Errorf("halo3d: %w", err)
		}
		ss, err := callSetup(out.sweepWall, recS.Events())
		if err != nil {
			return fmt.Errorf("sweep3d: %w", err)
		}
		setups = append(setups, (hs + ss).Seconds())
		b.calibrate()
	}
	b.set("setup_s", stats.Median(setups))

	heap := startHeapSampler()
	defer heap.close()
	var walls, ms, peaks []float64
	heap.take()
	for end := time.Now().Add(b.body); time.Now().Before(end) || len(walls) < 3; {
		out, err := r.pass(nil, nil)
		if err != nil {
			return err
		}
		peaks = append(peaks, heap.take())
		walls = append(walls, out.wall().Seconds())
		ms = append(ms, millis(out.wall()))
		b.calibrate()
	}
	wall := stats.Median(walls)
	b.set("wall_s", wall)
	b.set("cells_per_s", 2/wall)
	b.set("p50_ms", percentile(ms, 50))
	b.set("p99_ms", windowedP99(ms, stencilP99Window))
	b.set("sat_rps", 1/wall)
	b.set("peak_heap_mib", stats.Median(peaks))
	return nil
}

func newStencilRun(b *bench, p StencilParams) (*stencilRun, error) {
	spec := platform.Niagara().WithSeed(b.seed).WithNoise(noise.Uniform, p.NoisePercent)
	hm, err := patterns.ParseMode(p.Halo.Mode)
	if err != nil {
		return nil, err
	}
	sm, err := patterns.ParseMode(p.Sweep.Mode)
	if err != nil {
		return nil, err
	}
	intra, inter := sim.Duration(p.IntraWingNS), sim.Duration(p.InterWingNS)
	nx, ny, nz := patterns.Decompose3D(p.Halo.Ranks)
	px, py := patterns.Decompose2D(p.Sweep.Ranks)
	return &stencilRun{
		b: b,
		halo: patterns.HaloConfig{
			Nx: nx, Ny: ny, Nz: nz,
			ThreadsPerDim: p.Halo.ThreadsPerDim,
			FaceBytes:     p.Halo.FaceBytes,
			Compute:       sim.Duration(p.Halo.ComputeNS),
			Repeats:       p.Halo.Repeats,
			Mode:          hm,
			Platform:      spec,
			Shards:        p.Shards,
			ShardMapping:  p.Mapping,
			Topology:      patterns.WingAlignedDragonfly(p.Halo.Ranks, p.Shards, intra, inter),
		},
		sweep: patterns.SweepConfig{
			Px: px, Py: py,
			Threads:        p.Sweep.Threads,
			BytesPerThread: p.Sweep.BytesPerThread,
			Compute:        sim.Duration(p.Sweep.ComputeNS),
			ZBlocks:        p.Sweep.ZBlocks,
			Octants:        p.Sweep.Octants,
			Repeats:        p.Sweep.Repeats,
			Mode:           sm,
			Platform:       spec,
			Shards:         p.Shards,
			ShardMapping:   p.Mapping,
			Topology:       patterns.WingAlignedDragonfly(p.Sweep.Ranks, p.Shards, intra, inter),
		},
	}, nil
}

// callSetup is a simulation call's set-up as the call itself shows it:
// its host time outside the span from its first shard window's start to
// its last one's end. That is world construction, rank spawning and the
// window pool's start before the first window, plus result assembly after
// the last. evs are the call's shard-window spans.
func callSetup(wall time.Duration, evs []trace.Event) (time.Duration, error) {
	if len(evs) == 0 {
		return 0, fmt.Errorf("no shard window was recorded")
	}
	lo, hi := evs[0].TsUs, evs[0].TsUs+evs[0].DurUs
	for _, e := range evs {
		lo, hi = min(lo, e.TsUs), max(hi, e.TsUs+e.DurUs)
	}
	windows := time.Duration((hi - lo) * 1e3)
	if windows > wall {
		return 0, fmt.Errorf("shard windows span %v, longer than the call's %v", windows, wall)
	}
	return wall - windows, nil
}

// pass runs both simulations, with shard-window recording when rec is
// non-nil, and checks them against the sequential reference.
func (r *stencilRun) pass(recHalo, recSweep *trace.Recorder) (stencilPass, error) {
	var out stencilPass
	halo, sweep := r.halo, r.sweep
	halo.ShardTrace, sweep.ShardTrace = recHalo, recSweep
	var err error
	start := time.Now()
	out.halo, err = patterns.RunHalo3D(halo)
	out.haloWall = time.Since(start)
	if err != nil {
		return out, err
	}
	start = time.Now()
	out.sweep, err = patterns.RunSweep3D(sweep)
	out.sweepWall = time.Since(start)
	if err != nil {
		return out, err
	}
	r.b.op(r.check(out))
	return out, nil
}

// check holds a pass to the sharding invariant: the sharded results equal
// the shards = 1 results.
func (r *stencilRun) check(out stencilPass) error {
	if err := sameResult("halo3d", out.halo, r.refHalo); err != nil {
		return err
	}
	return sameResult("sweep3d", out.sweep, r.refSweep)
}

func sameResult(what string, got, want *patterns.Result) error {
	if got.Elapsed != want.Elapsed || got.PayloadBytes != want.PayloadBytes || got.Messages != want.Messages {
		return fmt.Errorf("%s at %d shards: elapsed %v, %d bytes, %d messages; shards=1 gives %v, %d, %d",
			what, shardCount(got), got.Elapsed, got.PayloadBytes, got.Messages,
			want.Elapsed, want.PayloadBytes, want.Messages)
	}
	return nil
}

func shardCount(r *patterns.Result) int {
	if r.Shard == nil {
		return 1
	}
	return r.Shard.Shards
}

// traced alternates plain and traced passes. Traced passes record every
// shard-window on a trace recorder; the windows become sim spans under
// the simulation's patterns span.
func (r *stencilRun) traced() error {
	b := r.b
	runProbes(b)
	rt0 := readRuntime()
	var plain, traced, haloS, sweepS []float64
	var st sim.ShardStats
	var imbalance []float64
	var simNS, hostNS, msgs, bytes, busyNS, spanNS int64
	var ops int64
	for end := time.Now().Add(b.body); time.Now().Before(end) || len(traced) < 2; {
		out, err := r.pass(nil, nil)
		if err != nil {
			return err
		}
		ops++
		plain = append(plain, out.wall().Seconds())
		haloS = append(haloS, out.haloWall.Seconds())
		sweepS = append(sweepS, out.sweepWall.Seconds())
		for _, res := range []*patterns.Result{out.halo, out.sweep} {
			sh := res.Shard
			st.Events += sh.Events
			st.Windows += sh.Windows
			st.Merged += sh.Merged
			st.MergeSkips += sh.MergeSkips
			st.Steals += sh.Steals
			st.PredNS += sh.PredNS
			st.ActualNS += sh.ActualNS
			imbalance = append(imbalance, sh.ImbalanceMean)
			simNS += int64(res.Elapsed)
			msgs += res.Messages
			bytes += res.PayloadBytes
		}
		hostNS += int64(out.wall())

		ops++
		recH, recS := new(trace.Recorder), new(trace.Recorder)
		passStart := time.Now()
		out, err = r.pass(recH, recS)
		if err != nil {
			return err
		}
		traced = append(traced, out.wall().Seconds())
		pass := b.spans.add(0, "bench", "pass", ops, b.spans.ns(passStart), b.spans.ns(time.Now()))
		hs := b.spans.ns(passStart)
		for _, sp := range []struct {
			name string
			wall time.Duration
			rec  *trace.Recorder
			res  *patterns.Result
		}{{"halo3d", out.haloWall, recH, out.halo}, {"sweep3d", out.sweepWall, recS, out.sweep}} {
			he := hs + int64(sp.wall)
			id := b.spans.add(pass, "patterns", sp.name, ops, hs, he)
			busy, span := addWindowSpans(b.spans, id, ops, he, sp.rec.Events())
			busyNS += busy
			spanNS += span * int64(sp.res.Shard.Workers)
			hs = he
		}
	}
	n := float64(len(plain))
	b.set("patterns.halo3d_s", stats.Median(haloS))
	b.set("patterns.sweep3d_s", stats.Median(sweepS))
	b.set("sim.sim_s_per_host_s", float64(simNS)/float64(hostNS))
	b.set("sim.shard_events", float64(st.Events)/n)
	b.set("sim.shard_windows", float64(st.Windows)/n)
	b.set("sim.shard_merged", float64(st.Merged)/n)
	b.set("sim.shard_merge_skips", float64(st.MergeSkips)/n)
	b.set("sim.shard_steals", float64(st.Steals)/n)
	b.set("sim.shard_imbalance_mean", stats.Median(imbalance))
	predErr := 0.0
	if st.ActualNS > 0 {
		predErr = float64(abs(st.PredNS-st.ActualNS)) / float64(st.ActualNS)
	}
	b.set("sim.shard_pred_err", predErr)
	b.set("sim.shard_ns_per_event", float64(st.ActualNS)/float64(st.Events))
	busyFrac := 0.0
	if spanNS > 0 {
		busyFrac = float64(busyNS) / float64(spanNS)
	}
	b.set("sim.shard_worker_busy_frac", busyFrac)
	b.set("netsim.msgs", float64(msgs)/n)
	b.set("netsim.bytes", float64(bytes)/n)
	b.setSelfTimes(int64(len(traced)), "bench", "patterns", "sim")
	b.set("trace.overhead_ratio", stats.Median(traced)/stats.Median(plain))
	b.setGoMetrics(rt0, ops)
	return nil
}

// addWindowSpans files a simulation's shard-window events as sim spans
// under parent. Window times are relative to the shard group's own start,
// which the benchmark cannot see; the windows are placed so the last one
// ends when the simulation call returned. It returns the windows' total
// busy time and the span from the first window's start to the last one's
// end (ns).
func addWindowSpans(log *spanLog, parent, op, callEnd int64, evs []trace.Event) (busy, span int64) {
	if len(evs) == 0 {
		return 0, 0
	}
	lo, hi := int64(evs[0].TsUs*1e3), int64(0)
	for _, e := range evs {
		s, f := int64(e.TsUs*1e3), int64((e.TsUs+e.DurUs)*1e3)
		lo, hi = min(lo, s), max(hi, f)
		busy += f - s
	}
	shift := callEnd - hi
	for _, e := range evs {
		s, f := int64(e.TsUs*1e3), int64((e.TsUs+e.DurUs)*1e3)
		log.add(parent, "sim", e.Name, op, s+shift, f+shift)
	}
	return busy, hi - lo
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
