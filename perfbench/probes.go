package main

import (
	"fmt"
	"time"

	"partmb/internal/cluster"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Public-API probes, run by every traced run. Each probe times a fixed
// number of calls into one layer; the probes' samples are interleaved
// (one sample of each probe per round) so a change in host conditions
// lands on all of them alike. The sim and mpi probes have the shapes of
// BenchmarkProcHandoff, BenchmarkPt2PtRoundtrip and
// BenchmarkPartitionedEpoch in bench_test.go, so their per-op figures line
// up with bench_allocs_baseline.json; the mpi probes run their 2-rank
// world under MPI_THREAD_MULTIPLE.

const probeRounds = 15

// probe is one probe: sample runs ops calls and returns the host time and
// heap allocations they took, and optionally a per-call time of its own
// (ns; used when only part of each op is timed).
type probe struct {
	name   string
	ops    int
	sample func(ops int) (time.Duration, uint64, float64)
}

func probes() []probe {
	return []probe{
		{"sim.event", 200_000, probeSimEvents},
		{"sim.switch", 5_000, probeProcHandoff},
		{"mpi.roundtrip", 1_000, probeRoundtrip},
		{"mpi.part_epoch", 150, probePartEpoch},
		{"mpi.pready", 100, probePready},
		{"mpi.parrived", 100, probeParrived},
		{"netsim.inject", 200_000, probeInject},
		{"engine.key", 2_000, probeKey},
		{"engine.hit", 20_000, probeHit},
		{"engine.miss_overhead", 5_000, probeMiss},
	}
}

// runProbes runs every probe and reports its metrics.
func runProbes(b *bench) {
	ps := probes()
	ns := make([][]float64, len(ps))
	allocs := make([][]float64, len(ps))
	for round := 0; round < probeRounds; round++ {
		for i, p := range ps {
			d, a, own := p.sample(p.ops)
			per := float64(d) / float64(p.ops)
			if own > 0 {
				per = own
			}
			ns[i] = append(ns[i], per)
			allocs[i] = append(allocs[i], float64(a)/float64(p.ops))
		}
	}
	iid := 0
	res := map[string]ProbeResult{}
	for i, p := range ps {
		r := ProbeResult{
			Name: p.name, Samples: probeRounds, OpsPerSamp: p.ops,
			NS: stats.Trimean(ns[i]), Allocs: stats.Trimean(allocs[i]), IID: stats.IsIID(ns[i]),
		}
		if r.IID {
			iid++
		}
		res[p.name] = r
		b.probes = append(b.probes, r)
	}
	b.set("sim.ns_per_event", res["sim.event"].NS)
	b.set("sim.ns_per_switch", res["sim.switch"].NS)
	b.set("mpi.roundtrip_ns", res["mpi.roundtrip"].NS)
	b.set("mpi.roundtrip_allocs", res["mpi.roundtrip"].Allocs)
	b.set("mpi.part_epoch_ns", res["mpi.part_epoch"].NS)
	b.set("mpi.part_epoch_allocs", res["mpi.part_epoch"].Allocs)
	b.set("mpi.pready_ns", res["mpi.pready"].NS)
	b.set("mpi.parrived_ns", res["mpi.parrived"].NS)
	b.set("netsim.inject_ns", res["netsim.inject"].NS)
	b.set("netsim.busy_frac", nicBusyFrac())
	b.set("engine.key_ns", res["engine.key"].NS)
	b.set("engine.hit_ns", res["engine.hit"].NS)
	b.set("engine.miss_overhead_ns", res["engine.miss_overhead"].NS)
	b.set("probes.iid_frac", float64(iid)/float64(len(ps)))
}

// timed runs fn and returns its host time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	a := readRuntime().allocObjects
	start := time.Now()
	fn()
	d := time.Since(start)
	return d, readRuntime().allocObjects - a
}

func mustRun(s *sim.Scheduler) {
	if err := s.Run(); err != nil {
		panic(fmt.Sprintf("perfbench: probe simulation failed: %v", err))
	}
}

// probeSimEvents chains ops events through Scheduler.At: each event
// schedules the next one nanosecond later.
func probeSimEvents(ops int) (time.Duration, uint64, float64) {
	s := sim.New()
	n := 0
	var next func()
	next = func() {
		n++
		if n < ops {
			s.At(s.Now()+1, next)
		}
	}
	s.At(0, next)
	d, a := timed(func() { mustRun(s) })
	return d, a, 0
}

// probeProcHandoff is BenchmarkProcHandoff: two procs alternating through
// a condition variable; one op is one turn of each proc.
func probeProcHandoff(ops int) (time.Duration, uint64, float64) {
	s := sim.New()
	var mu sim.Mutex
	cond := sim.NewCond(&mu)
	turn := 0
	runner := func(me int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			mu.Lock(p)
			for i := 0; i < ops; i++ {
				for turn != me {
					cond.Wait(p)
				}
				turn = 1 - me
				cond.Signal(p)
			}
			mu.Unlock(p)
		}
	}
	s.Spawn("a", runner(0))
	s.Spawn("b", runner(1))
	d, a := timed(func() { mustRun(s) })
	return d, a, 0
}

// multipleWorld is a 2-rank world under MPI_THREAD_MULTIPLE.
func multipleWorld() (*sim.Scheduler, *mpi.World) {
	s := sim.New()
	cfg := mpi.DefaultConfig(2)
	cfg.ThreadMode = mpi.Multiple
	return s, mpi.NewWorld(s, cfg)
}

// probeRoundtrip is BenchmarkPt2PtRoundtrip: one eager 1 KiB ping-pong
// per op.
func probeRoundtrip(ops int) (time.Duration, uint64, float64) {
	s, w := multipleWorld()
	s.Spawn("r0", func(p *sim.Proc) {
		c := w.Comm(0)
		for i := 0; i < ops; i++ {
			c.SendBytes(p, 1, 0, 1024)
			c.Recv(p, 1, 1)
		}
	})
	s.Spawn("r1", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 0; i < ops; i++ {
			c.Recv(p, 0, 0)
			c.SendBytes(p, 0, 1, 1024)
		}
	})
	d, a := timed(func() { mustRun(s) })
	return d, a, 0
}

// partEpochWorld builds BenchmarkPartitionedEpoch's world: 16 partitions
// of 4 KiB, ops epochs. send and recv run between Start and Wait on the
// sender and the receiver.
func partEpochWorld(ops int, send func(p *sim.Proc, pr *mpi.PRequest), recv func(p *sim.Proc, pr *mpi.PRequest)) (*sim.Scheduler, *mpi.World) {
	s, w := multipleWorld()
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(cluster.Place(w.Config().Machine, 16))
		pr := c.PsendInit(p, 1, 0, 16, 4096)
		c.Barrier(p)
		for i := 0; i < ops; i++ {
			pr.Start(p)
			send(p, pr)
			pr.Wait(p)
		}
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 16, 4096)
		c.Barrier(p)
		for i := 0; i < ops; i++ {
			pr.Start(p)
			recv(p, pr)
			pr.Wait(p)
		}
	})
	return s, w
}

func readyAll(p *sim.Proc, pr *mpi.PRequest) {
	for j := 0; j < 16; j++ {
		pr.Pready(p, j)
	}
}

func noWait(*sim.Proc, *mpi.PRequest) {}

// probePartEpoch is BenchmarkPartitionedEpoch: one 16-partition epoch per
// op.
func probePartEpoch(ops int) (time.Duration, uint64, float64) {
	s, _ := partEpochWorld(ops, readyAll, noWait)
	d, a := timed(func() { mustRun(s) })
	return d, a, 0
}

// probePready times each Pready call from the sender's proc body.
func probePready(ops int) (time.Duration, uint64, float64) {
	var calls []float64
	s, _ := partEpochWorld(ops, func(p *sim.Proc, pr *mpi.PRequest) {
		for j := 0; j < 16; j++ {
			t := time.Now()
			pr.Pready(p, j)
			calls = append(calls, float64(time.Since(t)))
		}
	}, noWait)
	d, a := timed(func() { mustRun(s) })
	return d, a, stats.Median(calls)
}

// probeParrived times each Parrived poll from the receiver's proc body;
// the receiver polls every partition, backing off in simulated time
// between unsuccessful polls.
func probeParrived(ops int) (time.Duration, uint64, float64) {
	var calls []float64
	s, _ := partEpochWorld(ops, readyAll, func(p *sim.Proc, pr *mpi.PRequest) {
		for j := 0; j < 16; j++ {
			for {
				t := time.Now()
				ok := pr.Parrived(p, j)
				calls = append(calls, float64(time.Since(t)))
				if ok {
					break
				}
				p.Sleep(500 * sim.Nanosecond)
			}
		}
	})
	d, a := timed(func() { mustRun(s) })
	return d, a, stats.Median(calls)
}

// nicBusyFrac runs the partitioned-epoch world once and returns the
// sender NIC's injection-busy share of the simulated time.
func nicBusyFrac() float64 {
	s, w := partEpochWorld(50, readyAll, noWait)
	mustRun(s)
	if s.Now() == 0 {
		return 0
	}
	return float64(w.Comm(0).NICStats().TxBusy) / float64(s.Now())
}

// probeInject queues ops 4 KiB messages back to back on one NIC.
func probeInject(ops int) (time.Duration, uint64, float64) {
	nic := netsim.NewNIC(netsim.EDR())
	var now sim.Time
	d, a := timed(func() {
		for i := 0; i < ops; i++ {
			now, _ = nic.Inject(now, 4096, 0)
		}
	})
	return d, a, 0
}

// probeCell is the configuration the engine probes key: a resolved
// point-to-point cell like the ones sweepd and Figs 4–8 run.
func probeCell() core.Config {
	return core.Config{
		MessageBytes: 64 << 10, Partitions: 16, Iterations: 10, Warmup: 2,
		Compute:  sim.Millisecond,
		Platform: platform.Niagara().WithThreadMode(mpi.Multiple),
	}
}

// probeKey hashes a cell configuration into its engine key.
func probeKey(ops int) (time.Duration, uint64, float64) {
	cfg := probeCell()
	d, a := timed(func() {
		for i := 0; i < ops; i++ {
			if _, err := engine.Key("core", cfg); err != nil {
				panic(err)
			}
		}
	})
	return d, a, 0
}

// probeHit resolves a settled key from the memo.
func probeHit(ops int) (time.Duration, uint64, float64) {
	rn := engine.New(engine.Workers(1))
	one := func() (int, error) { return 1, nil }
	if _, err := engine.DoAs(rn, "hot", one); err != nil {
		panic(err)
	}
	d, a := timed(func() {
		for i := 0; i < ops; i++ {
			if _, err := engine.DoAs(rn, "hot", one); err != nil {
				panic(err)
			}
		}
	})
	return d, a, 0
}

// probeMiss resolves ops distinct keys whose computation is trivial: the
// engine's own cost of a miss.
func probeMiss(ops int) (time.Duration, uint64, float64) {
	rn := engine.New(engine.Workers(1))
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = fmt.Sprintf("miss-%d", i)
	}
	one := func() (int, error) { return 1, nil }
	d, a := timed(func() {
		for _, k := range keys {
			if _, err := engine.DoAs(rn, k, one); err != nil {
				panic(err)
			}
		}
	})
	return d, a, 0
}
