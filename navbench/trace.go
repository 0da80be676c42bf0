package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// tracer keeps a traced run's spans in memory until writeFile puts them
// out at exit.  A nil tracer records nothing, so set-up code times its
// phases through the same span calls in both modes.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span, or — when Calls is set — the aggregate
// of a wrapped leaf call (a distance query, a contact draw) too frequent to
// record one span each: Calls invocations summing TotalNs under Parent.
type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	TotalNs int64  `json:"total_ns,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span.  Its timer runs whether or not it is recorded.
type span struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// start opens a span under parent (nil for a root) in request req (0 for
// none).
func (t *tracer) start(name string, parent *span, req int64) *span {
	s := &span{tr: t, name: name, req: req, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	if t != nil {
		s.id = t.next.Add(1)
	}
	return s
}

// end closes the span, records it when traced, and returns its duration.
func (s *span) end() time.Duration {
	end := time.Now()
	if t := s.tr; t != nil {
		t.add(spanRecord{
			ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
			StartNs: s.start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		})
	}
	return end.Sub(s.start)
}

// record adds a span whose interval was measured elsewhere and returns it,
// so that it can parent further spans.
func (t *tracer) record(name string, parent *span, start, end time.Time) *span {
	s := t.start(name, parent, 0)
	if parent != nil {
		s.req = parent.req
	}
	s.start = start
	if t != nil {
		t.add(spanRecord{ID: s.id, Parent: s.parent, Req: s.req, Name: name,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	}
	return s
}

// aggregate records a leaf call's totals under parent.
func (t *tracer) aggregate(name string, parent *span, calls int64, total time.Duration) {
	if t == nil || parent == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.add(spanRecord{
		ID: t.next.Add(1), Parent: parent.id, Req: parent.req, Name: name,
		StartNs: parent.start.Sub(t.t0).Nanoseconds(), EndNs: now,
		Calls: calls, TotalNs: total.Nanoseconds(),
	})
}

func (t *tracer) add(r spanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// durations returns the duration of every recorded span with the given
// name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, r := range t.spans {
		if r.Name == name {
			out = append(out, time.Duration(r.EndNs-r.StartNs))
		}
	}
	return out
}

// total sums the durations of every recorded span with the given name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, r := range t.spans {
		if err = enc.Encode(r); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// leafStats counts the calls of a wrapped leaf and sums their durations.
// Counters are striped by the call's node id so that concurrent workers
// rarely contend on one cache line.
type leafStats struct {
	stripes [8]struct {
		calls, ns atomic.Int64
		_         [48]byte
	}
}

func (l *leafStats) add(key graph.NodeID, d time.Duration) {
	s := &l.stripes[uint32(key)%uint32(len(l.stripes))]
	s.calls.Add(1)
	s.ns.Add(int64(d))
}

func (l *leafStats) totals() (calls int64, total time.Duration) {
	for i := range l.stripes {
		calls += l.stripes[i].calls.Load()
		total += time.Duration(l.stripes[i].ns.Load())
	}
	return calls, total
}

// sized is the optional node-count interface the route layer checks a
// distance source against the graph with; wrappers forward it exactly when
// the wrapped value has it.
type sized interface{ N() int }

// tracedSource times every Dist call of the wrapped source.
type tracedSource struct {
	src   dist.Source
	stats *leafStats
}

func (s *tracedSource) Dist(u, t graph.NodeID) int32 {
	t0 := time.Now()
	d := s.src.Dist(u, t)
	s.stats.add(u, time.Since(t0))
	return d
}

type tracedSizedSource struct {
	*tracedSource
	sized
}

// traceSource wraps src so that stats receives every Dist call.
func traceSource(src dist.Source, stats *leafStats) dist.Source {
	ts := &tracedSource{src: src, stats: stats}
	if n, ok := src.(sized); ok {
		return tracedSizedSource{ts, n}
	}
	return ts
}

// tracedInstance times every Contact draw of the wrapped instance.
type tracedInstance struct {
	inst  augment.Instance
	stats *leafStats
}

func (c *tracedInstance) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	t0 := time.Now()
	v := c.inst.Contact(u, rng)
	c.stats.add(u, time.Since(t0))
	return v
}

type tracedSizedInstance struct {
	*tracedInstance
	sized
}

// traceInstance wraps inst so that stats receives every Contact draw.
func traceInstance(inst augment.Instance, stats *leafStats) augment.Instance {
	ti := &tracedInstance{inst: inst, stats: stats}
	if n, ok := inst.(sized); ok {
		return tracedSizedInstance{ti, n}
	}
	return ti
}
