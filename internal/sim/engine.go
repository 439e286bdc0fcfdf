package sim

import (
	"fmt"
	"math/rand"
)

// event is the engine's internal timer node. Nodes are owned by the engine
// and recycled through a freelist once they fire or are canceled; user code
// only ever holds generation-validated Event handles, so a recycled node can
// never be confused with the event a stale handle referred to.
type event struct {
	when Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	gen  uint64 // bumped on release; validates handles
	name string
	fn   func()

	pending bool

	// index is the node's position in the heap queue.
	index int
	// next threads the freelist.
	next *event
}

// Event is a handle to a scheduled callback, returned by At/After. It is a
// small value (copy freely). A handle is live while its event is pending;
// once the event fires or is canceled the handle goes stale and Pending
// reports false forever, even after the engine recycles the underlying
// storage for a new event. The zero Event is a (stale) handle to nothing.
type Event struct {
	n   *event
	gen uint64
}

// Pending reports whether the event is still queued. It is stale-safe: a
// handle to a fired or canceled event reports false even if the engine has
// since reused the event's storage.
func (e Event) Pending() bool { return e.n != nil && e.n.gen == e.gen && e.n.pending }

// When returns the instant the event is scheduled for. It is meaningful only
// while the event is pending; stale handles return 0.
func (e Event) When() Time {
	if e.Pending() {
		return e.n.when
	}
	return 0
}

// Name returns the diagnostic label given at scheduling time, or "" for a
// stale handle.
func (e Event) Name() string {
	if e.Pending() {
		return e.n.name
	}
	return ""
}

// eventLess is the queue order: earliest instant first, FIFO by seq within
// one instant.
func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Stats accumulates engine-level accounting used by the power/overhead
// experiments.
type Stats struct {
	// Events is the total number of events executed.
	Events uint64
	// Wakeups counts CPU wakeups: transitions from virtual idle to running.
	// Events executing at the same instant share one wakeup, which is how
	// timer coalescing (round_jiffies, slack windows, dynticks) saves power.
	Wakeups uint64
	// Canceled counts events canceled before they ran.
	Canceled uint64
	// IdleTime is the total virtual time during which no event was running,
	// i.e. the sum of gaps between distinct event instants.
	IdleTime Duration
	// EventAllocs counts event nodes allocated from the Go heap. In steady
	// state the freelist satisfies every At/After, so this plateaus at the
	// peak number of simultaneously pending events.
	EventAllocs uint64
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use: simulations are single-threaded by design so that a seed
// fully determines the trace.
type Engine struct {
	now      Time
	queue    heapQueue
	free     *event // freelist of released nodes, threaded via next
	seq      uint64
	rng      *rand.Rand
	src      *countingSource
	stats    Stats
	lastWake Time
	hasWoken bool
	running  bool
	stopped  bool
}

// NewEngine returns an engine at time zero whose randomness derives entirely
// from seed.
func NewEngine(seed int64) *Engine {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Engine{rng: rand.New(src), src: src}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Stats returns a copy of the accumulated accounting.
func (e *Engine) Stats() Stats { return e.stats }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }

// acquire takes a node from the freelist, falling back to the heap when the
// list is empty (cold start or a new high-water mark of pending events).
//
//lint:allocfree steady-state acquire is a freelist pop; the fallback below is the accounted cold path
func (e *Engine) acquire() *event {
	if n := e.free; n != nil {
		e.free = n.next
		n.next = nil
		return n
	}
	e.stats.EventAllocs++
	//lint:ignore allocfree cold path: freelist miss at cold start or a new pending high-water mark, counted in stats.EventAllocs
	return &event{}
}

// release invalidates every outstanding handle to the node (generation bump)
// and returns it to the freelist.
//
//lint:allocfree freelist push: field resets and one pointer link
func (e *Engine) release(n *event) {
	n.gen++
	n.fn = nil
	n.name = ""
	n.pending = false
	n.next = e.free
	e.free = n
}

// At schedules fn to run at instant t. Scheduling in the past (t < Now) is a
// programming error and panics: the simulated kernels are responsible for
// clamping, just as real kernels must decide what an already-expired timer
// means. Steady-state calls are allocation-free: the returned handle is a
// value and the event node comes from the engine's freelist.
//
//lint:allocfree the schedule path PR 3 de-allocated; guarded dynamically by TestEngineZeroAllocSteadyState
func (e *Engine) At(t Time, name string, fn func()) Event {
	if t < e.now {
		//lint:ignore allocfree panic formatting runs once, on a programming error, never in steady state
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	e.seq++
	//lint:ignore allocfree inlined freelist-miss fallback from acquire; cold, counted in stats.EventAllocs
	n := e.acquire()
	n.when, n.seq, n.name, n.fn = t, e.seq, name, fn
	n.pending = true
	e.queue.push(n)
	return Event{n: n, gen: n.gen}
}

// After schedules fn to run d from now. Negative d is clamped to zero,
// matching the behaviour of timer syscalls given zero/negative timeouts.
//
//lint:allocfree clamp plus At; nothing of its own may allocate
func (e *Engine) After(d Duration, name string, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), name, fn)
}

// Cancel removes a pending event. It returns false if the event has already
// run or been canceled (stale handles are safe and report false).
//
//lint:allocfree cancel is unlink plus freelist push
func (e *Engine) Cancel(ev Event) bool {
	if !ev.Pending() {
		return false
	}
	e.queue.remove(ev.n)
	e.stats.Canceled++
	e.release(ev.n)
	return true
}

// Reschedule moves a pending event to a new instant, reusing the event
// in place: no allocation, and the handle stays live. The event's FIFO
// tie-break restarts — it receives a fresh sequence number, so it runs after
// every event already scheduled at the new instant, exactly as if it had
// been canceled and re-added (the pre-freelist semantics, now without the
// churn). Instants in the past clamp to now. Rescheduling a fired or
// canceled event is a programming error and panics; callers that may hold a
// stale handle must check Pending first and schedule anew.
//
//lint:allocfree in-place re-key plus queue update; the whole point of reusing the node
func (e *Engine) Reschedule(ev Event, t Time) Event {
	if !ev.Pending() {
		panic("sim: Reschedule of a fired or canceled event (check Pending, then At)")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	n := ev.n
	n.when = t
	n.seq = e.seq
	e.queue.update(n)
	return ev
}

// Step runs the earliest pending event. It returns false if the queue is
// empty or the engine was stopped. The event node is recycled before the
// callback runs, so a rearm inside the callback reuses it immediately.
//
//lint:allocfree the expire path: dequeue, stats, recycle, invoke
func (e *Engine) Step() bool {
	if e.stopped || e.queue.len() == 0 {
		return false
	}
	n := e.queue.pop()
	if n.when > e.now {
		// The CPU was idle between the previous batch and this instant.
		e.stats.IdleTime += n.when.Sub(e.now)
		e.now = n.when
	}
	if !e.hasWoken || e.lastWake != e.now {
		e.stats.Wakeups++
		e.lastWake = e.now
		e.hasWoken = true
	}
	e.stats.Events++
	fn := n.fn
	e.release(n)
	fn()
	return true
}

// Run executes events until the queue is empty, the engine is stopped, or
// virtual time would pass `until`. Events scheduled exactly at `until` run.
// On return the clock reads min(until, time of last event executed), and is
// advanced to `until` if the queue drained earlier.
func (e *Engine) Run(until Time) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped {
		head := e.queue.peek()
		if head == nil || head.when > until {
			break
		}
		e.Step()
	}
	if e.now < until && !e.stopped {
		e.stats.IdleTime += until.Sub(e.now)
		e.now = until
	}
}

// NextAt returns the instant of the earliest pending event. ok is false when
// the queue is empty. The fleet scheduler uses it to find the next global
// instant when a conservative window degenerates (zero-latency links).
func (e *Engine) NextAt() (t Time, ok bool) {
	if n := e.queue.peek(); n != nil {
		return n.when, true
	}
	return 0, false
}

// AdvanceUntil runs every pending event strictly before horizon and returns
// how many executed. It is the bounded-step façade the parallel fleet engine
// advances hosts with: unlike Run, an event scheduled exactly at the horizon
// does NOT run — it belongs to the next conservative window, where an inbound
// cross-host message carrying the same timestamp may still be scheduled ahead
// of or behind it deterministically. The clock is left at the last executed
// event (not pushed to the horizon), so the engine accepts new events at any
// t >= the last execution — in particular at exactly the horizon.
//
//lint:allocfree window advance is peek/Step in a loop; both are alloc-free
func (e *Engine) AdvanceUntil(horizon Time) int {
	if e.running {
		panic("sim: AdvanceUntil called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	n := 0
	for !e.stopped {
		head := e.queue.peek()
		if head == nil || head.when >= horizon {
			break
		}
		e.Step()
		n++
	}
	return n
}

// RunAll drains the queue completely (or until Stop). Intended for tests and
// terminating workloads; a workload with a self-rearming ticker never drains.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Stop halts Run/RunAll after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool { return e.stopped }
