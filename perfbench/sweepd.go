package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"partmb/internal/cliutil"
	"partmb/internal/engine"
	"partmb/internal/service"
	"partmb/internal/stats"
)

// sweepd-mix: an in-process service.Server on loopback, built the way
// cmd/sweepd builds it (single-flight runner, FanOut observer, disk cache,
// MaxActive = nproc). Requests draw from a hot pool of specs (cache hits);
// every ColdEvery-th uses a fresh seed (a cold core.Run cell written to
// the disk cache). Plain runs measure a closed loop over nproc
// connections. Traced runs first drive an open loop at a fixed rate,
// latency timed from each request's due time, then the closed loop. The
// open loop's latency is a per-layer figure only: on a shared virtual
// machine its tail moved by a third or more between runs, because an
// idle machine's wake-ups are where host steal shows most.

// failedLatency stands in for the latency of a failed or refused request:
// it misses any latency limit.
const failedLatency = 60 * time.Second

// coldCheckEvery: one cold response in this many is recomputed after the
// body (a recomputation costs as much as the request). Every hot response
// is checked as it arrives.
const coldCheckEvery = 4

type mixRun struct {
	b     *bench
	p     MixParams
	nproc int
	hot   []mixSpec
	// cells is the number of cells one request resolves.
	cells int

	srv    *service.Server
	hs     *http.Server
	served chan error
	rn     *engine.Runner
	fan    *engine.FanOut
	epoch  time.Time // the runner's epoch, to within its construction
	dir    string
	url    string
	client *http.Client

	// tracer is installed (traced runs) before the server starts.
	tracer *mixTracer
}

// mixSpec is one hot request body with the table the library renders for
// it.
type mixSpec struct {
	body []byte
	want []byte
}

// outcome is what the client keeps of one request. The response body is
// checked on arrival (hot) or kept as a digest (cold), never retained.
type outcome struct {
	op              int64
	due, sent, done time.Time
	err             error
	cold, checkCold bool
	seed            int64
	cells           int
	sum             [sha256.Size]byte
	traced          bool
}

// latency is the request's time in ms from since (its send, or in the
// open loop its due time) to its completion; a failed request counts as
// failedLatency.
func (o outcome) latency(since time.Time) float64 {
	if o.err != nil {
		return millis(failedLatency)
	}
	return millis(o.done.Sub(since))
}

// spec rebuilds the spec the request sent.
func (m *mixRun) spec(o outcome) service.Spec {
	s := m.p.Spec
	s.Seed = o.seed
	return s
}

func runSweepdMix(b *bench) error {
	m := &mixRun{b: b, p: b.params.SweepdMix, nproc: runtime.NumCPU()}
	b.workloadParams = map[string]any{
		"rate_rps": m.p.RateRPS, "open_frac": m.p.OpenFrac, "cold_every": m.p.ColdEvery,
		"hot_pool": m.p.HotPool, "spec": m.p.Spec, "queue_depth": m.p.QueueDepth,
		"max_active": m.nproc, "connections": m.nproc, "batch_requests": m.p.BatchRequests,
		"cold_check_every": coldCheckEvery,
	}
	if err := m.buildHot(); err != nil {
		return err
	}
	m.dir = filepath.Join(b.out, fmt.Sprintf("sweepd-cache-%d", os.Getpid()))
	defer os.RemoveAll(m.dir)
	m.client = &http.Client{
		Timeout:   failedLatency,
		Transport: &http.Transport{MaxConnsPerHost: m.nproc, MaxIdleConnsPerHost: m.nproc},
	}
	defer m.client.CloseIdleConnections()
	if b.traced {
		m.tracer = newMixTracer()
	}

	// Set-up: server construction plus warming the hot pool, from an
	// empty cache. A plain run builds the server SetupReps times: once
	// before the body and once between each two of its closed-loop
	// segments, so set-up sees the host the body saw. Each build serves
	// the segment after it.
	var setups []float64
	setup := func() error {
		if err := m.stop(); err != nil {
			return err
		}
		if !b.traced {
			b.calibrate()
		}
		start := time.Now()
		if err := m.start(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	defer m.stop()
	if err := setup(); err != nil {
		return err
	}
	segments := 1
	if !b.traced {
		segments = max(1, min(m.p.SetupReps-1, int(b.body/minSegment)))
	}
	if m.tracer != nil {
		m.tracer.clear()
	}

	rt0 := readRuntime()
	st0 := m.rn.Stats()
	heap := startHeapSampler()
	defer heap.close()
	var peaks []float64
	var open []outcome
	closed := &closedTally{traced: b.traced}
	var stEnd engine.Stats
	var setupErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		closedDur := b.body
		if b.traced {
			openDur := time.Duration(float64(b.body) * m.p.OpenFrac)
			open = m.openLoop(openDur)
			closedDur -= openDur
		}
		var from int64
		for i := 0; i < segments; i++ {
			if i > 0 {
				if setupErr = setup(); setupErr != nil {
					return
				}
			}
			from = m.closedLoop(closedDur/time.Duration(segments), closed, from)
		}
		stEnd = m.rn.Stats()
	}()
	heap.take()
	tick := time.NewTicker(time.Second)
	for wait := true; wait; {
		select {
		case <-done:
			wait = false
		case <-tick.C:
			peaks = append(peaks, heap.take())
		}
	}
	tick.Stop()
	if len(peaks) == 0 {
		peaks = append(peaks, heap.take())
	}
	if setupErr != nil {
		return setupErr
	}
	if !b.traced {
		b.set("setup_s", stats.Median(setups))
	}

	// Correctness: every request counts; sampled cold responses are
	// recomputed now, after the body.
	colds := closed.colds
	for _, o := range open {
		if o.checkCold && o.err == nil {
			colds = append(colds, o)
		} else {
			b.op(o.err)
		}
	}
	for i := int64(0); i < closed.ok; i++ {
		b.op(nil)
	}
	for _, err := range closed.fails {
		b.op(err)
	}
	for _, err := range m.verifyCold(colds) {
		b.op(err)
	}

	if b.traced {
		return m.traced(open, closed, rt0, st0, stEnd)
	}
	b.set("p50_ms", percentile(closed.lat, 50))
	b.set("p99_ms", windowedP99(closed.lat, p99Window))
	var blockSecs, cellRates []float64
	for _, blk := range closed.full(m.p.BatchRequests) {
		blockSecs = append(blockSecs, blk.secs)
		cellRates = append(cellRates, float64(blk.cells)/blk.secs)
	}
	if len(blockSecs) == 0 {
		return fmt.Errorf("the closed loop completed no request")
	}
	wall := stats.Median(blockSecs)
	b.set("wall_s", wall)
	b.set("sat_rps", float64(m.p.BatchRequests)/wall)
	b.set("cells_per_s", stats.Median(cellRates))
	b.set("peak_heap_mib", stats.Median(peaks))
	return nil
}

// buildHot resolves the spec and the hot pool, and renders each hot
// spec's expected table.
func (m *mixRun) buildHot() error {
	rq, err := m.p.Spec.Resolve()
	if err != nil {
		return err
	}
	m.cells = len(rq.Sizes)
	for i := 0; i < m.p.HotPool; i++ {
		spec := m.p.Spec
		spec.Seed = m.hotSeed(i)
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		want, err := expectedCSV(spec)
		if err != nil {
			return err
		}
		m.hot = append(m.hot, mixSpec{body: body, want: want})
	}
	return nil
}

// expectedCSV renders the table the library computes for spec, outside
// the service: service.Request.Run on a private runner, then Table.
func expectedCSV(spec service.Spec) ([]byte, error) {
	rq, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	res, err := rq.Run(engine.New(engine.Workers(runtime.NumCPU())))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rq.Table(res).WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Seeds: hot and cold seeds are derived from the run's seed and live in
// disjoint ranges, so a cold request can never hit the hot pool.
func (m *mixRun) hotSeed(i int) int64    { return m.b.seed<<20 + 1 + int64(i) }
func (m *mixRun) coldSeed(k int64) int64 { return m.b.seed<<20 + 1<<19 + k }

// pick draws request j of the stream: every ColdEvery-th request, from a
// seeded offset, is cold; the others pick a hot spec at random. Evenly
// spaced cold requests keep two of them from landing back to back by
// chance, which would make the latency tail depend on the seed.
func (m *mixRun) pick(j int64) (hot int, cold bool) {
	every := uint64(m.p.ColdEvery)
	if (uint64(j)+mix64(uint64(m.b.seed), 0))%every == 0 {
		return 0, true
	}
	return int(mix64(uint64(m.b.seed)^0x9e3779b97f4a7c15, uint64(j)) % uint64(len(m.hot))), false
}

// mix64 is a splitmix64 step over (a, b): a fixed, seeded hash.
func mix64(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// start builds the server on an empty cache directory, starts serving on
// loopback and warms the hot pool.
func (m *mixRun) start() error {
	eng := &cliutil.EngineFlags{
		Workers:  m.nproc,
		CacheDir: m.dir,
		Retries:  engine.DefaultRetry.MaxAttempts,
		Backoff:  engine.DefaultRetry.Backoff.String(),
	}
	m.fan = engine.NewFanOut()
	rn, err := eng.Runner(engine.WithSingleFlight(), engine.WithObserver(m.fan))
	if err != nil {
		return err
	}
	m.epoch = time.Now()
	m.rn = rn
	rn.SetExperiment("sweepd")
	m.srv = service.New(service.Config{
		Runner:     rn,
		Fan:        m.fan,
		Disk:       eng.DiskCache(),
		MaxActive:  m.nproc,
		QueueDepth: m.p.QueueDepth,
	})
	var h http.Handler = m.srv
	if m.tracer != nil {
		m.tracer.attach(m)
		h = m.tracer.wrap(m.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	m.url = "http://" + ln.Addr().String() + "/v1/sweep?format=csv"
	m.hs = &http.Server{Handler: h}
	m.served = make(chan error, 1)
	go func() { m.served <- m.hs.Serve(ln) }()
	// The hot pool is warmed over one connection, so set-up is the sum of
	// the cells' host times; over nproc connections it would also depend
	// on whether the host runs both vCPUs at once.
	for _, h := range m.hot {
		if _, err := m.post(h.body, 0, false); err != nil {
			return fmt.Errorf("warming the hot pool: %w", err)
		}
	}
	return nil
}

// stop drains the server, shuts the listener, waits for the serving
// goroutine and empties the cache directory.
func (m *mixRun) stop() error {
	if m.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.srv.Drain(ctx); err != nil {
		return err
	}
	err := m.hs.Shutdown(ctx)
	if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	m.hs = nil
	m.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(m.dir))
}

// post sends one request and returns its body; a non-200 status is an
// error.
func (m *mixRun) post(body []byte, op int64, traced bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, m.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// send issues request j of the stream and checks a hot response against
// its expected table.
func (m *mixRun) send(op, j int64, due time.Time, traced bool) outcome {
	o := outcome{op: op, due: due, traced: traced}
	hot, cold := m.pick(j)
	var body []byte
	if cold {
		k := j / int64(m.p.ColdEvery)
		o.cold, o.checkCold = true, k%coldCheckEvery == 0
		o.seed = m.coldSeed(j)
		var err error
		if body, err = json.Marshal(m.spec(o)); err != nil {
			o.err = err
			return o
		}
	} else {
		o.seed = m.hotSeed(hot)
		body = m.hot[hot].body
	}
	o.cells = m.cells
	o.sent = time.Now()
	resp, err := m.post(body, op, traced)
	o.done = time.Now()
	switch {
	case err != nil:
		o.err = err
	case cold:
		o.sum = sha256.Sum256(resp)
	case !bytes.Equal(resp, m.hot[hot].want):
		o.err = fmt.Errorf("hot spec %d: response differs from service.Request.Run + Table", hot)
	}
	return o
}

// verifyCold recomputes sampled cold responses on nproc goroutines and
// returns one result per response: nil, or why it is wrong.
func (m *mixRun) verifyCold(colds []outcome) []error {
	errs := make([]error, len(colds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < m.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(colds)); i = next.Add(1) - 1 {
				want, err := expectedCSV(m.spec(colds[i]))
				switch {
				case err != nil:
					errs[i] = err
				case sha256.Sum256(want) != colds[i].sum:
					errs[i] = fmt.Errorf("cold spec seed %d: response differs from service.Request.Run + Table", colds[i].seed)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// openLoop sends requests due at a fixed rate for dur, over nproc
// connections: a sender that falls behind sends late, and the lateness
// counts in the request's latency.
func (m *mixRun) openLoop(dur time.Duration) []outcome {
	total := int64(m.p.RateRPS * dur.Seconds())
	out := make([]outcome, total)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < m.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < total; j = next.Add(1) - 1 {
				due := start.Add(time.Duration(float64(j) / m.p.RateRPS * float64(time.Second)))
				waitUntil(due)
				out[j] = m.send(j+1, j, due, m.tracer != nil)
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil sleeps until shortly before t, then yields until t: a timer
// alone wakes the sender a fraction of a millisecond late, which would
// count in every request's latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how long before a due time the open-loop sender stops
// sleeping and starts yielding.
const spinWindow = 300 * time.Microsecond

// minSegment is the shortest closed-loop segment between two set-ups of
// a plain run: long enough to hold many full blocks.
const minSegment = time.Second

// closedBase offsets the op ids of the closed phase from the open phase's.
const closedBase = int64(1) << 40

// closedTally accumulates the closed loop as requests complete, keeping
// only what the metrics and checks need, so the load generator's own heap
// stays small and flat.
type closedTally struct {
	traced bool // keep the traced outcomes, for spans

	mu      sync.Mutex
	lat     []float64 // request latency (ms), in completion order
	blocks  []closedBlock
	ok      int64     // requests that passed their check on arrival
	fails   []error   // requests that failed
	colds   []outcome // cold responses to recompute
	tracedO []outcome
}

// closedBlock is one block of BatchRequests consecutive requests of the
// stream: its host seconds from the first send to the last completion,
// the cells its requests resolved, and how many were traced.
type closedBlock struct {
	lo, hi time.Time
	secs   float64
	count  int
	cells  int
	traced int
}

func (t *closedTally) add(o outcome, j int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat = append(t.lat, o.latency(o.sent))
	switch {
	case o.err != nil:
		t.fails = append(t.fails, o.err)
	case o.checkCold:
		t.colds = append(t.colds, o)
	default:
		t.ok++
	}
	if t.traced && o.traced {
		t.tracedO = append(t.tracedO, o)
	}
	k := int(j / int64(n))
	for len(t.blocks) <= k {
		t.blocks = append(t.blocks, closedBlock{})
	}
	blk := &t.blocks[k]
	if blk.count == 0 || o.sent.Before(blk.lo) {
		blk.lo = o.sent
	}
	if o.done.After(blk.hi) {
		blk.hi = o.done
	}
	blk.count++
	blk.cells += o.cells
	if o.traced {
		blk.traced++
	}
}

// full returns the complete blocks of n requests; a phase shorter than
// one block is one block.
func (t *closedTally) full(n int) []closedBlock {
	var out []closedBlock
	for _, blk := range t.blocks {
		if blk.count == n || (len(t.blocks) == 1 && blk.count > 0) {
			blk.secs = blk.hi.Sub(blk.lo).Seconds()
			out = append(out, blk)
		}
	}
	return out
}

// closedLoop sends back-to-back requests on nproc connections for dur,
// from stream position from on. It returns the first block boundary after
// the last request it sent: a segment's last block is partial, and full
// drops it. Traced runs alternate traced and untraced blocks of
// BatchRequests.
func (m *mixRun) closedLoop(dur time.Duration, t *closedTally, from int64) int64 {
	n := m.p.BatchRequests
	var next atomic.Int64
	next.Store(from)
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < m.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				j := next.Add(1) - 1
				traced := m.tracer != nil && (j/int64(n))%2 == 1
				t.add(m.send(closedBase+j+1, closedBase+j, time.Now(), traced), j, n)
			}
		}()
	}
	wg.Wait()
	return (next.Load() + int64(n) - 1) / int64(n) * int64(n)
}
