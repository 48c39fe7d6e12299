package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer by
// the wrapper around the call.
type span struct {
	Name string `json:"name"`
	// ID is the query, epoch, tick or RPC id the span belongs to; -1 marks
	// run-level spans.
	ID int64 `json:"id"`
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int32 `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Self is the duration minus the part of it that child spans cover.
	Self int64 `json:"self_ns"`
}

// spanStats aggregates every span of one name, kept or not.
type spanStats struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`

	// durs holds span durations for percentiles. It keeps every span until
	// maxSamples, then every stride-th, halving itself each time it fills,
	// so long runs stay bounded without favouring early spans.
	durs   []int64
	stride int64
	seen   int64
}

const (
	// maxSamples bounds each span name's duration samples.
	maxSamples = 1 << 17
	// maxKeptSpans bounds the span records written at the end of a run.
	maxKeptSpans = 1 << 18
	// keepEvery keeps the full span records of one id in keepEvery; the
	// aggregates cover every span.
	keepEvery = 64
)

func (s *spanStats) observe(dur, self int64) {
	s.Count++
	s.TotalNs += dur
	s.SelfNs += self
	if s.stride == 0 {
		s.stride = 1
	}
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	if len(s.durs) == maxSamples {
		s.durs = halve(s.durs)
		s.stride *= 2
	}
	s.durs = append(s.durs, dur)
}

func halve(xs []int64) []int64 {
	out := xs[:0]
	for i := 1; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}

// percentile returns the q-quantile of the sampled durations in ns.
func (s *spanStats) percentile(q float64) float64 {
	if s == nil {
		return 0
	}
	return quantileNs(s.durs, q)
}

func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

// openSpan is a span begun on the nesting stack and not yet ended.
type openSpan struct {
	name  string
	id    int64
	start int64
	child int64 // ns covered by ended children
	kept  int32 // index in tracer.spans, or -1
}

// tracer records spans in memory and writes them when the run ends. A nil
// *tracer is the untraced run: every method returns at once.
//
// Nesting spans (begin/end) come from one goroutine at a time — the DES
// engine, the fleet epoch, or the wall-clock control tick. Leaf spans from
// concurrent callers go through leaf. The mutex orders both.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	stack   []openSpan
	spans   []span
	dropped int64
	byName  map[string]*spanStats
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), byName: make(map[string]*spanStats)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) keep(id int64, parent int32) int32 {
	if len(t.spans) >= maxKeptSpans {
		t.dropped++
		return -1
	}
	if id >= 0 && id%keepEvery != 0 {
		return -1
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) stats(name string) *spanStats {
	s := t.byName[name]
	if s == nil {
		s = &spanStats{}
		t.byName[name] = s
	}
	return s
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].kept
	}
	t.stack = append(t.stack, openSpan{name: name, id: id, start: t.now(), kept: t.keep(id, parent)})
	t.mu.Unlock()
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.mu.Lock()
	endNs := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := endNs - o.start
	self := dur - o.child
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if o.kept >= 0 {
		sp := &t.spans[o.kept]
		sp.Name, sp.Start, sp.End, sp.Self = o.name, o.start, endNs, self
	}
	t.stats(o.name).observe(dur, self)
	t.mu.Unlock()
}

// leaf records a finished root span with no children, from any goroutine.
func (t *tracer) leaf(name string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s, e := int64(start.Sub(t.origin)), int64(end.Sub(t.origin))
	if i := t.keep(id, -1); i >= 0 {
		t.spans[i] = span{Name: name, ID: id, Parent: -1, Start: s, End: e, Self: e - s}
	}
	t.stats(name).observe(e-s, e-s)
	t.mu.Unlock()
}

// stat returns the aggregate for name (nil when no span of that name ended).
func (t *tracer) stat(name string) *spanStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byName[name]
}

// count returns how many spans of name ended.
func (t *tracer) count(name string) int64 {
	if s := t.stat(name); s != nil {
		return s.Count
	}
	return 0
}

// total returns the summed duration of the spans of name in ns.
func (t *tracer) total(name string) int64 {
	if s := t.stat(name); s != nil {
		return s.TotalNs
	}
	return 0
}

// self returns the summed self time of the spans of name in ns.
func (t *tracer) self(name string) int64 {
	if s := t.stat(name); s != nil {
		return s.SelfNs
	}
	return 0
}

// meanUs is the mean duration of the spans of name in µs.
func (t *tracer) meanUs(name string) float64 {
	if n := t.count(name); n > 0 {
		return float64(t.total(name)) / float64(n) / 1e3
	}
	return 0
}

// write stores the kept spans as JSON lines under path: one header line,
// one line per span name with its aggregates, then the spans.
func (t *tracer) write(path string, header map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header["spans_kept"] = len(t.spans)
	header["spans_dropped"] = t.dropped
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	names := make([]string, 0, len(t.byName))
	for name := range t.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := enc.Encode(map[string]any{"aggregate": name, "stats": t.byName[name]}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
