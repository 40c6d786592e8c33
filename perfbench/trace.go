package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the benchmark owns. Spans of
// one round share its round number; parent is 0 for a root span.
type span struct {
	id, parent int64
	name       string
	round      int64
	start, end time.Time
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, name string, round int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, round: round, start: start, end: end})
	t.mu.Unlock()
}

// span records a finished span that has no children.
func (t *tracer) span(name string, round, parent int64, start, end time.Time) {
	t.record(t.newID(), parent, name, round, start, end)
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracerSlot switches tracing on and off while the program runs; a nil
// tracer means untraced.
type tracerSlot struct{ p atomic.Pointer[tracer] }

func (s *tracerSlot) get() *tracer { return s.p.Load() }

func (s *tracerSlot) set(t *tracer) { s.p.Store(t) }

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		covered := time.Duration(0)
		cursor := s.start
		for _, k := range kids {
			from, to := k.start, k.end
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[s.id] = s.end.Sub(s.start) - covered
	}
	return out
}

// writeSpans writes the spans as tab-separated lines (id, parent, name,
// round, start and end in ns since the first span).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.round,
			s.start.Sub(origin).Nanoseconds(), s.end.Sub(origin).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
