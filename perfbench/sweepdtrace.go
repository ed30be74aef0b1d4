package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/obs"
	"partmb/internal/stats"
)

// opHeader carries a traced request's op id to the handler wrapper.
const opHeader = "X-Perfbench-Op"

// mixTracer records the traced run's service and engine spans. Client
// request records arrive from the load generator; the handler wrapper
// times ServeHTTP; a FanOut subscriber sees every cell and task. Spans are
// assembled after the body, when every record is in.
type mixTracer struct {
	mu       sync.Mutex
	handlers map[int64][2]time.Time
	cells    []engine.CellEvent
	tasks    []engine.TaskEvent
	fwdNS    []float64
	col      *obs.Collector
	epoch    time.Time
}

func newMixTracer() *mixTracer {
	return &mixTracer{handlers: map[int64][2]time.Time{}}
}

// attach subscribes the tracer to a freshly built server's fan-out.
func (t *mixTracer) attach(m *mixRun) {
	t.mu.Lock()
	t.epoch = m.epoch
	t.mu.Unlock()
	t.clear()
	m.fan.Add(t)
}

// clear drops everything recorded so far, so the body's records exclude
// set-up and warm-up.
func (t *mixTracer) clear() {
	t.mu.Lock()
	t.cells, t.tasks, t.fwdNS = nil, nil, nil
	t.handlers = map[int64][2]time.Time{}
	t.col = obs.NewCollector()
	t.mu.Unlock()
}

func (t *mixTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(opHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.handlers[op] = [2]time.Time{start, end}
		t.mu.Unlock()
	})
}

// CellDone forwards the event, timed, to the collector and keeps it.
func (t *mixTracer) CellDone(ev engine.CellEvent) {
	start := time.Now()
	t.col.CellDone(ev)
	fwd := time.Since(start)
	t.mu.Lock()
	t.cells = append(t.cells, ev)
	t.fwdNS = append(t.fwdNS, float64(fwd))
	t.mu.Unlock()
}

func (t *mixTracer) TaskDone(ev engine.TaskEvent) {
	t.col.TaskDone(ev)
	t.mu.Lock()
	t.tasks = append(t.tasks, ev)
	t.mu.Unlock()
}

// traced reports the per-layer metrics of a traced sweepd-mix run.
func (m *mixRun) traced(open []outcome, closed *closedTally, rt0 rtSnap, st0, st1 engine.Stats) error {
	b, t := m.b, m.tracer
	ops := float64(len(open) + len(closed.lat))
	b.setGoMetrics(rt0, int64(ops))
	runProbes(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	epochNS := b.spans.ns(t.epoch)

	// Request and handler spans.
	type handlerSpan struct {
		id, start, end int64
		keys           map[string]bool
	}
	var handlers []*handlerSpan
	var handlerMS, late []float64
	keysOf := map[int64][]string{}
	traced := int64(0)
	for _, o := range append(append([]outcome(nil), open...), closed.tracedO...) {
		if !o.traced || o.err != nil {
			continue
		}
		hw, ok := t.handlers[o.op]
		if !ok {
			continue
		}
		traced++
		rid := b.spans.add(0, "loadgen", "request", o.op, b.spans.ns(o.sent), b.spans.ns(o.done))
		hs := &handlerSpan{start: b.spans.ns(hw[0]), end: b.spans.ns(hw[1]), keys: map[string]bool{}}
		hs.id = b.spans.add(rid, "service", "ServeHTTP", o.op, hs.start, hs.end)
		keys, ok := keysOf[o.seed]
		if !ok {
			if rq, err := m.spec(o).Resolve(); err == nil {
				keys = rq.CellKeys()
			}
			keysOf[o.seed] = keys
		}
		for _, k := range keys {
			hs.keys[k] = true
		}
		handlers = append(handlers, hs)
		handlerMS = append(handlerMS, millis(hw[1].Sub(hw[0])))
	}
	var openMS []float64
	for _, o := range open {
		openMS = append(openMS, o.latency(o.due))
		if o.err == nil {
			late = append(late, millis(o.sent.Sub(o.due)))
		}
	}

	// Cell spans, filed under the traced handler that requested them: the
	// latest-starting handler that contains the cell and asked for its key.
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].start < handlers[j].start })
	var longest int64
	for _, h := range handlers {
		longest = max(longest, h.end-h.start)
	}
	var coreMS []float64
	var simNS, simHostNS int64
	for _, ev := range t.cells {
		s := epochNS + int64(ev.Start)
		e := s + int64(ev.Host)
		i := sort.Search(len(handlers), func(i int) bool { return handlers[i].start > s })
		for i--; i >= 0 && handlers[i].start >= s-longest; i-- {
			if h := handlers[i]; e <= h.end && h.keys[ev.Key] {
				b.spans.add(h.id, cellLayer(ev), "cell", 0, s, e)
				break
			}
		}
		if ev.Source != engine.SourceRun {
			continue
		}
		if res, ok := ev.Value.(*core.Result); ok {
			coreMS = append(coreMS, millis(ev.Host))
			simNS += int64(res.SimElapsed())
			simHostNS += int64(ev.Host)
		}
	}
	var busy int64
	for _, ev := range t.tasks {
		busy += int64(ev.End - ev.Start)
	}

	var st engine.Stats
	st.Cells, st.Runs, st.Hits = st1.Cells-st0.Cells, st1.Runs-st0.Runs, st1.Hits-st0.Hits
	st.DiskHits, st.DiskWrites = st1.DiskHits-st0.DiskHits, st1.DiskWrites-st0.DiskWrites
	setEngineCounts(b, st, ops)
	b.set("engine.lane_busy_frac", float64(busy)/(float64(b.body)*float64(m.nproc)))
	b.set("core.cell_ms_p50", percentile(coreMS, 50))
	b.set("core.cell_ms_p99", percentile(coreMS, 99))
	ratio := 0.0
	if simHostNS > 0 {
		ratio = float64(simNS) / float64(simHostNS)
	}
	b.set("sim.sim_s_per_host_s", ratio)
	snap := m.srv.Snapshot()
	b.set("service.handler_ms_p50", percentile(handlerMS, 50))
	b.set("service.handler_ms_p99", percentile(handlerMS, 99))
	b.set("service.rejected", float64(snap.Requests.Rejected))
	b.set("service.server_errors", float64(snap.Requests.ServerErrors))
	b.set("obs.celldone_ns", stats.Trimean(t.fwdNS))
	b.set("loadgen.open_p99_ms", windowedP99(openMS, p99Window))
	b.set("loadgen.late_ms_p99", percentile(late, 99))
	b.setSelfTimes(max(traced, 1), "loadgen", "service", "engine", "core")

	// Overhead: traced closed-loop blocks against the untraced ones.
	var plainB, tracedB []float64
	for _, blk := range closed.full(m.p.BatchRequests) {
		switch blk.traced {
		case 0:
			plainB = append(plainB, blk.secs)
		case m.p.BatchRequests:
			tracedB = append(tracedB, blk.secs)
		}
	}
	if len(plainB) == 0 || len(tracedB) == 0 {
		return fmt.Errorf("closed loop too short for the overhead comparison (%d requests)", len(closed.lat))
	}
	b.set("trace.overhead_ratio", stats.Median(tracedB)/stats.Median(plainB))
	return nil
}
