package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// A span times one call from the benchmark into a layer. Spans stay in
// memory while the run measures and are written out as JSON lines when it
// ends. Spans opened with alloc accounting also record the heap
// allocations (runtime.MemStats Mallocs and TotalAlloc) made between their
// start and end; ReadMemStats stops the world, so per-request and
// per-window spans skip it.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Run    uint64  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Allocs uint64  `json:"allocs,omitempty"`
	Bytes  uint64  `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Microsecond))
}

// tracer records spans for one traced run; safe for concurrent use. A nil
// *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	run uint64
	t0  time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer(run uint64) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// open is a span in progress.
type open struct {
	tr     *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	allocs bool
	mem    runtime.MemStats
}

// begin opens a span under parent (0 = root). withAllocs adds heap
// allocation accounting.
func (t *tracer) begin(name string, parent uint64, withAllocs bool) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &open{tr: t, id: id, parent: parent, name: name, allocs: withAllocs}
	if withAllocs {
		runtime.ReadMemStats(&o.mem)
	}
	o.start = time.Now()
	return o
}

// spanID is the span's identifier for children; 0 on a nil span.
func (o *open) spanID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

// end closes the span and returns it.
func (o *open) end() span {
	if o == nil {
		return span{}
	}
	stop := time.Now()
	s := span{
		ID: o.id, Parent: o.parent, Run: o.tr.run, Name: o.name,
		Start: float64(o.start.Sub(o.tr.t0)) / float64(time.Microsecond),
		End:   float64(stop.Sub(o.tr.t0)) / float64(time.Microsecond),
	}
	if o.allocs {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.Allocs = m.Mallocs - o.mem.Mallocs
		s.Bytes = m.TotalAlloc - o.mem.TotalAlloc
	}
	o.tr.add(s)
	return s
}

// record adds a span measured by the caller (start and end already taken).
func (t *tracer) record(name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Run: t.run, Name: name,
		Start: float64(start.Sub(t.t0)) / float64(time.Microsecond),
		End:   float64(end.Sub(t.t0)) / float64(time.Microsecond),
	})
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
