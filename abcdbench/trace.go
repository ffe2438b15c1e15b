package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans that the benchmark opens around its calls into
// each layer. Spans stay in memory and are written out once, at exit, as
// a Chrome trace-event file. When off, a span still measures its
// duration (the untraced run needs the timings) but records nothing.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Spans of one job share trace; parent is
// the id of the span that caused this one (0 for a job's root).
type spanRec struct {
	name       string
	trace, id  int64
	parent     int64
	start, dur time.Duration
	count      float64 // work done inside the span, e.g. edges
	countUnit  string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span.
type span struct {
	tr     *tracer
	name   string
	trace  int64
	id     int64
	parent int64
	start  time.Time
}

// start opens a span named after the layer call it wraps.
func (t *tracer) start(name string, trace, parent int64) span {
	s := span{tr: t, name: name, trace: trace, parent: parent}
	if t.on.Load() {
		s.id = t.ids.Add(1)
	}
	s.start = time.Now()
	return s
}

// end closes the span, recording count units of work done inside it, and
// returns its duration.
func (s span) end(count float64, unit string) time.Duration {
	d := time.Since(s.start)
	if s.id != 0 {
		s.tr.mu.Lock()
		s.tr.spans = append(s.tr.spans, spanRec{
			name: s.name, trace: s.trace, id: s.id, parent: s.parent,
			start: s.start.Sub(s.tr.t0), dur: d, count: count, countUnit: unit,
		})
		s.tr.mu.Unlock()
	}
	return d
}

// total sums the duration and count of every recorded span named name.
func (t *tracer) total(name string) (dur time.Duration, count float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name {
			dur += s.dur
			count += s.count
		}
	}
	return dur, count
}

// durations lists the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur.Seconds())
		}
	}
	return out
}

// write dumps the recorded spans as Chrome trace-event JSON: one complete
// ("X") event per span, the job's trace id as the thread id.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.trace,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.dur) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "count": s.count, "unit": s.countUnit},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
