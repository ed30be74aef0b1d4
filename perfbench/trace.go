package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed layer call of a traced run. Times are host
// nanoseconds since the run started; Parent is 0 for a root span; Op is
// the pass or request the span belongs to.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory; write saves them once, at
// exit. It is safe for concurrent use: engine observers add spans from
// worker goroutines.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// ns converts a host time to the log's clock.
func (l *spanLog) ns(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// add records a finished span and returns its id.
func (l *spanLog) add(parent int64, layer, name string, op, start, end int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Op: op, Start: start, End: end})
	return id
}

// begin opens a span starting now; end closes it. Children may be added
// with the open span as parent in between.
func (l *spanLog) begin(parent int64, layer, name string, op int64) int64 {
	now := l.ns(time.Now())
	return l.add(parent, layer, name, op, now, now)
}

func (l *spanLog) end(id int64) {
	now := l.ns(time.Now())
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

func (l *spanLog) get(id int64) Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id-1]
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// selfTimes returns each layer's total self time: for every span, its
// duration minus the part of it its children cover, summed by layer.
// Children of one parent may run in parallel, so their cover is the
// measure of the union of their intervals.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		d := s.End - s.Start - cover(kids[s.ID], s.Start, s.End)
		if d < 0 {
			d = 0
		}
		self[s.Layer] += time.Duration(d)
	}
	return self
}

// cover returns the length of the union of the intervals, clipped to
// [lo, hi].
func cover(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv {
		if x[0] > curHi {
			flush()
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	flush()
	return total
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// setSelfTimes reports self.<layer>_ms per operation for the given layers.
func (b *bench) setSelfTimes(ops int64, layers ...string) {
	self := b.spans.selfTimes()
	for _, layer := range layers {
		b.set("self."+layer+"_ms", millis(self[layer])/float64(ops))
	}
}
