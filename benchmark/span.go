package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is the benchmark's own bracket around one call into a layer's
// public API: product code is not instrumented, so a span's duration is
// what the caller saw. Spans of one request share Req; Parent is the span
// that caused this one (0 for a root). Start and End are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps finished spans in memory until the run ends. A nil
// *tracer is the untraced pass: every method is a no-op, so the workload
// code is the same on both passes and the difference between them is the
// tracing overhead.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span, held by value on the caller's stack.
type openSpan struct {
	id, parent, req int64
	name            string
	start           int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID returns a fresh id. Requests and spans draw from one sequence,
// so an id names one thing in the whole trace.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.newID(), parent: parent, req: req, name: name, start: t.now()}
}

func (t *tracer) end(o openSpan) {
	if t == nil {
		return
	}
	t.add(span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: t.now()})
}

// record adds a span whose ends the caller timed and whose id it drew
// beforehand: the open loop times a request from when it was due, not
// from when a goroutine got to it, and its children need the id before
// the request has finished.
func (t *tracer) record(id int64, name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns every span duration under name, in the given unit
// (nanoseconds per unit).
func (t *tracer) durations(name string, unit float64) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/unit)
		}
	}
	return out
}

// p50 is the median duration of the spans under name, as a metric.
func (t *tracer) p50(name string, unit float64, unitName string) metric {
	d := t.durations(name, unit)
	return metric{Value: median(d), Unit: unitName, N: int64(len(d))}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children are clipped
// to the parent and overlapping children are counted once, so concurrent
// children (the harness fans experiments out) never drive self time
// below zero.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanSummary is one row of the per-name table printed after a traced
// run: where the time went, by span name.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50US     float64 `json:"p50_us"`
	SelfP50US float64 `json:"self_p50_us"`
	SelfSumMS float64 `json:"self_sum_ms"`
}

func (t *tracer) summary() []spanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type acc struct{ dur, self []float64 }
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.dur = append(a.dur, float64(s.dur())/1e3)
		a.self = append(a.self, float64(self[s.ID])/1e3)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		a := by[n]
		sum := 0.0
		for _, v := range a.self {
			sum += v
		}
		out = append(out, spanSummary{Name: n, Count: len(a.dur),
			P50US: median(a.dur), SelfP50US: median(a.self), SelfSumMS: sum / 1e3})
	}
	return out
}

// write dumps every span as one JSON document, a span per line so the
// file greps and diffs.
func (t *tracer) write(path string, workload string, seed uint64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"epoch_unix_ns\":%d,\"spans\":[\n", workload, seed, t.epoch.UnixNano())
	for i, s := range t.spans {
		b, err := json.Marshal(s)
		if err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
		w.Write(b)
		if i < len(t.spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	t.mu.Unlock()
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
