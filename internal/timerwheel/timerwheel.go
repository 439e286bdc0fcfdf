// Package timerwheel implements the timer-queue data structures underlying
// the simulated kernels: the hashed and hierarchical timing wheels of
// Varghese & Lauck (SOSP'87), the simple fixed-horizon wheel, and two
// baselines (sorted list, binary heap) used by the ablation benchmarks.
//
// All implementations share the Queue interface and the intrusive Timer
// entry, so the simulated Linux and Vista timer subsystems can be configured
// with any of them and the benchmarks can compare set/cancel/expire costs
// across structures, as Section 2 of the paper discusses ("typically
// implemented using a variant of timing wheels").
//
// Time here is an abstract tick counter: the Linux personality maps one tick
// to one jiffy (4 ms), the Vista personality to one clock interrupt
// (15.6 ms).
package timerwheel

// Timer is an intrusive timer entry. A Timer belongs to at most one Queue at
// a time. The zero value is ready to Schedule. Payload carries the owner's
// state (callback, tracing identity) opaquely.
type Timer struct {
	expires uint64
	queue   Queue
	seq     uint64 // insertion order for same-tick FIFO
	// intrusive doubly-linked list (sorted list, wheel buckets)
	next, prev *Timer
	bucket     *bucket
	// heap position
	index int
	// Payload is the owner's opaque state.
	Payload any
}

// Expires returns the absolute tick the timer is set for. Only meaningful
// while pending.
func (t *Timer) Expires() uint64 { return t.expires }

// Pending reports whether the timer is queued in some Queue.
func (t *Timer) Pending() bool { return t.queue != nil }

// Queue is a priority queue of timers keyed by absolute expiry tick.
//
// Advance(now, fire) runs the clock forward: every timer with expires <= now
// is removed and passed to fire, grouped by tick in nondecreasing tick order
// (FIFO within one tick for the list-based structures). Schedule on an
// already-pending timer moves it (Linux __mod_timer semantics). Scheduling
// for a tick <= the last Advance tick fires on the next Advance — kernels
// round timeouts up so "expire immediately" means "on the next tick", which
// is the jiffy-quantization effect visible in the paper's Figures 8-11.
type Queue interface {
	// Schedule inserts or moves t to expire at the given absolute tick.
	Schedule(t *Timer, expires uint64)
	// Cancel removes t; it reports whether t was pending in this queue.
	Cancel(t *Timer) bool
	// Advance fires all timers with expires <= now and returns the count.
	Advance(now uint64, fire func(*Timer)) int
	// Len returns the number of pending timers.
	Len() int
	// Name identifies the implementation for benchmarks and traces.
	Name() string
}

// bucket is an intrusive list head used by the wheel variants and the
// sorted list: the first and last entries of a nil-terminated doubly-linked
// list. The zero value is an empty list, so a wheel's bucket arrays need no
// initialisation, and each head costs 16 bytes instead of a sentinel Timer.
type bucket struct {
	first, last *Timer
}

// pushBack appends t.
//
//lint:allocfree pointer links only
func (b *bucket) pushBack(t *Timer) {
	b.insertAfter(t, b.last)
}

// insertAfter places t behind pos, or at the front when pos is nil.
//
//lint:allocfree pointer links only
func (b *bucket) insertAfter(t, pos *Timer) {
	t.prev = pos
	if pos == nil {
		t.next = b.first
		b.first = t
	} else {
		t.next = pos.next
		pos.next = t
	}
	if t.next == nil {
		b.last = t
	} else {
		t.next.prev = t
	}
	t.bucket = b
}

// remove unlinks t from its bucket.
//
//lint:allocfree pointer links only
func (b *bucket) remove(t *Timer) {
	if t.prev == nil {
		b.first = t.next
	} else {
		t.prev.next = t.next
	}
	if t.next == nil {
		b.last = t.prev
	} else {
		t.next.prev = t.prev
	}
	t.next, t.prev, t.bucket = nil, nil, nil
}

// popFront removes and returns the first timer, or nil.
//
//lint:allocfree pointer links only
func (b *bucket) popFront() *Timer {
	t := b.first
	if t != nil {
		b.remove(t)
	}
	return t
}
