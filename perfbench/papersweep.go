package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"partmb/internal/engine"
	"partmb/internal/figures"
	"partmb/internal/obs"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/stats"
)

// paper-sweep: Figs 4–13 at quick scale through figures.Env.Generate, in
// figure order, each pass on a fresh runner (memo on, no disk cache,
// workers = nproc, default policy), tables rendered to text. Closed batch.

// setupBatch is how many runner builds one set-up sample times.
const setupBatch = 1000

type paperSweepRun struct {
	b     *bench
	spec  *platform.Spec
	nproc int
	want  string // expected digest ("" when the seed is not listed)
	first string // first pass's digest, the reference for unlisted seeds
}

func runPaperSweep(b *bench) error {
	p := b.params.PaperSweep
	r := &paperSweepRun{
		b:     b,
		spec:  platform.Niagara().WithSeed(b.seed),
		nproc: runtime.NumCPU(),
		want:  p.Digests[strconv.FormatInt(b.seed, 10)],
	}
	b.workloadParams = map[string]any{
		"scale": "quick", "figures": figures.Numbers(), "workers": r.nproc,
		"cells": p.Cells, "runs": p.Runs, "hits": p.Hits, "digest": r.want,
	}

	// One unmeasured pass lets the heap and lazy state settle; its output
	// is still checked.
	r.pass(nil, 0)
	if b.traced {
		return r.traced()
	}

	// Set-up: what a pass builds before its first cell runs. One build is
	// under a microsecond, so a sample times a batch. SetupReps samples
	// are taken before every pass, so set-up sees the same host as the
	// passes do.
	var setups []float64
	setup := func() {
		for i := 0; i < p.SetupReps; i++ {
			start := time.Now()
			for k := 0; k < setupBatch; k++ {
				rn := engine.New(engine.Workers(r.nproc), engine.WithObserver(&cellTimes{}))
				_ = figures.Env{Runner: rn, Spec: platform.Niagara().WithSeed(b.seed)}
			}
			setups = append(setups, time.Since(start).Seconds()/setupBatch)
		}
	}

	heap := startHeapSampler()
	defer heap.close()
	var walls, cellMS, peaks []float64
	heap.take()
	for end := time.Now().Add(b.body); time.Now().Before(end) || len(walls) < 3; {
		setup()
		heap.take()
		out := r.pass(nil, 0)
		peaks = append(peaks, heap.take())
		walls = append(walls, out.wall.Seconds())
		cellMS = append(cellMS, out.cellMS...)
		b.calibrate()
	}
	b.set("setup_s", stats.Median(setups))
	wall := stats.Median(walls)
	b.set("wall_s", wall)
	b.set("cells_per_s", float64(p.Cells)/wall)
	b.set("p50_ms", percentile(cellMS, 50))
	b.set("p99_ms", windowedP99(cellMS, p99Window))
	b.set("sat_rps", float64(len(figures.Numbers()))/wall)
	b.set("peak_heap_mib", stats.Median(peaks))
	return nil
}

// passOut is what one pass produced.
type passOut struct {
	wall   time.Duration
	render time.Duration
	stats  engine.Stats
	cellMS []float64
	digest string
}

// pass generates and renders every figure on a fresh runner, then checks
// the output; a failed check, a generator error included, counts as a
// failed operation. tr, when non-nil, records spans for pass number op.
func (r *paperSweepRun) pass(tr *sweepTracer, op int64) passOut {
	var out passOut
	ct := &cellTimes{}
	var o engine.Observer = ct
	if tr != nil {
		o = tr
	}
	sc := figures.Quick()
	var buf bytes.Buffer
	start := time.Now()
	rn := engine.New(engine.Workers(r.nproc), engine.WithObserver(o))
	env := figures.Env{Runner: rn, Spec: r.spec}
	var passID int64
	if tr != nil {
		passID = tr.beginPass(op, start)
	}
	var genErr error
	for _, fig := range figures.Numbers() {
		if tr != nil {
			tr.beginFigure(fig)
		}
		tables, err := env.Generate(fig, sc)
		if tr != nil {
			tr.endFigure()
		}
		if err != nil {
			genErr = fmt.Errorf("figure %d: %w", fig, err)
			break
		}
		var rs int64
		if tr != nil {
			rs = tr.log.begin(passID, "report", "render", op)
		}
		rt := time.Now()
		for _, t := range tables {
			t.WriteText(&buf)
		}
		out.render += time.Since(rt)
		if tr != nil {
			tr.log.end(rs)
		}
	}
	out.wall = time.Since(start)
	if tr != nil {
		tr.log.end(passID)
	}
	out.stats = rn.Stats()
	out.cellMS = ct.ms
	sum := sha256.Sum256(buf.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	r.b.op(r.check(out, genErr))
	return out
}

// check compares a pass against the expected engine counts and digest.
// Seeds without a listed digest are checked against the run's first pass
// (every pass must render the same bytes).
func (r *paperSweepRun) check(out passOut, genErr error) error {
	p := r.b.params.PaperSweep
	if genErr != nil {
		return genErr
	}
	if st := out.stats; st.Cells != p.Cells || st.Runs != p.Runs || st.Hits != p.Hits {
		return fmt.Errorf("engine counts %d cells / %d runs / %d hits, want %d / %d / %d",
			st.Cells, st.Runs, st.Hits, p.Cells, p.Runs, p.Hits)
	}
	return checkDigest(out.digest, r.want, &r.first)
}

// checkDigest checks got against want, or, when want is empty, against
// the first digest seen (recorded in *first).
func checkDigest(got, want string, first *string) error {
	if want == "" {
		if *first == "" {
			*first = got
		}
		want = *first
	}
	if got != want {
		return fmt.Errorf("table digest %s, want %s", got, want)
	}
	return nil
}

// cellTimes is the plain run's observer: it keeps each cell's resolution
// time, the latency a caller of the engine sees.
type cellTimes struct {
	mu sync.Mutex
	ms []float64
}

func (c *cellTimes) CellDone(ev engine.CellEvent) {
	c.mu.Lock()
	c.ms = append(c.ms, millis(ev.Host))
	c.mu.Unlock()
}

func (c *cellTimes) TaskDone(engine.TaskEvent) {}

// traced runs the traced body: traced and plain passes alternate until
// the body time is spent, so the overhead ratio compares passes that saw
// the same host conditions.
func (r *paperSweepRun) traced() error {
	b := r.b
	runProbes(b)
	tr := newSweepTracer(b.spans)
	rt0 := readRuntime()
	var plain, traced, journal []float64
	figS := map[int][]float64{}
	var render []float64
	var ops int64
	var st engine.Stats
	for end := time.Now().Add(b.body); time.Now().Before(end) || len(traced) < 2; {
		plain = append(plain, r.pass(nil, 0).wall.Seconds())
		ops++
		tr.reset()
		out := r.pass(tr, ops)
		ops++
		traced = append(traced, out.wall.Seconds())
		for fig, d := range tr.figDur {
			figS[fig] = append(figS[fig], d.Seconds())
		}
		render = append(render, millis(out.render))
		journal = append(journal, millis(tr.journalTime()))
		st = addStats(st, out.stats)
	}
	n := float64(len(traced))
	for _, fig := range figures.Numbers() {
		b.set(fmt.Sprintf("figures.fig%02d_s", fig), stats.Median(figS[fig]))
	}
	b.set("report.render_ms", stats.Median(render))
	setEngineCounts(b, st, n)
	b.set("engine.lane_busy_frac", tr.laneBusyFrac(r.nproc))
	b.set("core.cell_ms_p50", percentile(tr.hostMS["core"], 50))
	b.set("core.cell_ms_p99", percentile(tr.hostMS["core"], 99))
	b.set("patterns.cell_ms_p50", percentile(tr.hostMS["patterns"], 50))
	b.set("patterns.cell_ms_p99", percentile(tr.hostMS["patterns"], 99))
	b.set("sim.sim_s_per_host_s", tr.simPerHost())
	b.set("netsim.msgs", float64(tr.msgs)/n)
	b.set("netsim.bytes", float64(tr.bytes)/n)
	b.set("obs.celldone_ns", tr.forwardNS())
	b.set("obs.journal_ms", stats.Median(journal))
	b.setSelfTimes(int64(len(traced)), "bench", "figures", "report", "engine", "core", "patterns", "snap")
	b.set("trace.overhead_ratio", stats.Median(traced)/stats.Median(plain))
	b.setGoMetrics(rt0, ops)
	return nil
}

// addStats sums the counters setEngineCounts reports.
func addStats(a, b engine.Stats) engine.Stats {
	a.Cells += b.Cells
	a.Runs += b.Runs
	a.Hits += b.Hits
	a.DiskHits += b.DiskHits
	a.DiskWrites += b.DiskWrites
	return a
}

// setEngineCounts reports the engine's counters per operation.
func setEngineCounts(b *bench, st engine.Stats, ops float64) {
	b.set("engine.cells", float64(st.Cells)/ops)
	b.set("engine.runs", float64(st.Runs)/ops)
	b.set("engine.memo_hits", float64(st.Hits)/ops)
	b.set("engine.disk_hits", float64(st.DiskHits)/ops)
	b.set("engine.disk_writes", float64(st.DiskWrites)/ops)
	ratio := 0.0
	if st.Cells > 0 {
		ratio = float64(st.Hits+st.DiskHits) / float64(st.Cells)
	}
	b.set("engine.hit_ratio", ratio)
}

// sweepTracer is the traced paper-sweep's engine observer. Each pass gets
// a span; each figure a child span; engine lane tasks become children of
// the figure, and resolved cells children of the task that contains them.
// Every cell event is also forwarded, timed, into an obs.Collector, whose
// journal and metrics are written once per pass.
type sweepTracer struct {
	log *spanLog

	mu      sync.Mutex
	op      int64
	passID  int64
	figID   int64
	fig     int
	epochNS int64 // the runner's epoch on the span clock
	col     *obs.Collector
	tasks   []engine.TaskEvent
	cells   []engine.CellEvent
	figDur  map[int]time.Duration

	// Accumulated over all traced passes.
	hostMS      map[string][]float64
	simNS       int64
	simHostNS   int64
	msgs, bytes int64
	busyNS      int64
	genNS       int64
	fwdNS       []float64
}

func newSweepTracer(log *spanLog) *sweepTracer {
	return &sweepTracer{log: log, hostMS: map[string][]float64{}}
}

// reset starts a new pass.
func (t *sweepTracer) reset() {
	t.col = obs.NewCollector()
	t.figDur = map[int]time.Duration{}
}

// beginPass opens the pass span. The runner was created at start, so its
// epoch (the origin of event times) is start on the span clock, to within
// the runner's construction time.
func (t *sweepTracer) beginPass(op int64, start time.Time) int64 {
	t.op = op
	t.epochNS = t.log.ns(start)
	t.passID = t.log.add(0, "bench", "pass", op, t.epochNS, t.epochNS)
	return t.passID
}

func (t *sweepTracer) beginFigure(fig int) {
	t.mu.Lock()
	t.fig = fig
	t.tasks, t.cells = t.tasks[:0], t.cells[:0]
	t.mu.Unlock()
	t.figID = t.log.begin(t.passID, "figures", fmt.Sprintf("fig%02d", fig), t.op)
}

// endFigure closes the figure span and files its tasks and cells under it.
func (t *sweepTracer) endFigure() {
	t.log.end(t.figID)
	t.mu.Lock()
	defer t.mu.Unlock()
	fs := t.log.get(t.figID)
	t.figDur[t.fig] = time.Duration(fs.End - fs.Start)
	t.genNS += fs.End - fs.Start
	type taskSpan struct {
		id, start, end int64
		kids           [][2]int64
	}
	var tasks []*taskSpan
	for _, ev := range t.tasks {
		s, e := t.epochNS+int64(ev.Start), t.epochNS+int64(ev.End)
		id := t.log.add(t.figID, "engine", "task", t.op, s, e)
		tasks = append(tasks, &taskSpan{id: id, start: s, end: e})
		t.busyNS += e - s
	}
	for _, ev := range t.cells {
		s := t.epochNS + int64(ev.Start)
		e := s + int64(ev.Host)
		parent := t.figID
		for _, ts := range tasks {
			if ts.start <= s && e <= ts.end && !overlaps(ts.kids, s, e) {
				parent = ts.id
				ts.kids = append(ts.kids, [2]int64{s, e})
				break
			}
		}
		layer := cellLayer(ev)
		t.log.add(parent, layer, "cell", t.op, s, e)
		if ev.Source != engine.SourceRun {
			continue
		}
		t.hostMS[layer] = append(t.hostMS[layer], millis(ev.Host))
		if st, ok := ev.Value.(obs.SimTimed); ok {
			t.simNS += int64(st.SimElapsed())
			t.simHostNS += int64(ev.Host)
		}
		if pr, ok := ev.Value.(*patterns.Result); ok {
			t.msgs += pr.Messages
			t.bytes += pr.PayloadBytes
		}
	}
}

func overlaps(iv [][2]int64, s, e int64) bool {
	for _, x := range iv {
		if x[0] < e && s < x[1] {
			return true
		}
	}
	return false
}

// cellLayer names the layer a cell's time belongs to: the package of the
// value a computed cell returned (core, patterns, snap), or engine for
// cells answered from a cache.
func cellLayer(ev engine.CellEvent) string {
	if ev.Source != engine.SourceRun || ev.Value == nil {
		return "engine"
	}
	t := reflect.TypeOf(ev.Value)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if pkg := path.Base(t.PkgPath()); pkg != "." && pkg != "" {
		return pkg
	}
	return "engine"
}

func (t *sweepTracer) CellDone(ev engine.CellEvent) {
	start := time.Now()
	t.col.CellDone(ev)
	fwd := time.Since(start)
	t.mu.Lock()
	t.cells = append(t.cells, ev)
	t.fwdNS = append(t.fwdNS, float64(fwd))
	t.mu.Unlock()
}

func (t *sweepTracer) TaskDone(ev engine.TaskEvent) {
	t.col.TaskDone(ev)
	t.mu.Lock()
	t.tasks = append(t.tasks, ev)
	t.mu.Unlock()
}

// journalTime writes this pass's journal and metrics summary (to a
// discarding writer) and returns how long that took.
func (t *sweepTracer) journalTime() time.Duration {
	start := time.Now()
	_ = obs.WriteJournal(io.Discard, "perfbench", t.col, false)
	_ = obs.WriteMetrics(io.Discard, "perfbench", t.col)
	return time.Since(start)
}

// laneBusyFrac is the engine lanes' busy share of the figure generation
// time, over all traced passes.
func (t *sweepTracer) laneBusyFrac(workers int) float64 {
	if t.genNS == 0 {
		return 0
	}
	return float64(t.busyNS) / float64(t.genNS*int64(workers))
}

// simPerHost is simulated seconds per host second over computed cells.
func (t *sweepTracer) simPerHost() float64 {
	if t.simHostNS == 0 {
		return 0
	}
	return float64(t.simNS) / float64(t.simHostNS)
}

func (t *sweepTracer) forwardNS() float64 { return stats.Trimean(t.fwdNS) }
