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
	// intrusive doubly-linked list (sorted list, wheel buckets); prev is
	// circular, see bucket
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
// sorted list: the first entry of a doubly-linked list whose next links
// end in nil and whose prev links are circular, so first.prev is the last
// entry. The zero value is an empty list, so a wheel's bucket arrays need
// no initialisation, and each head costs one pointer.
type bucket struct {
	first *Timer
}

// last returns the last timer, or nil.
func (b *bucket) last() *Timer {
	if b.first == nil {
		return nil
	}
	return b.first.prev
}

// before returns the timer in front of t, or nil when t is first.
func (b *bucket) before(t *Timer) *Timer {
	if t == b.first {
		return nil
	}
	return t.prev
}

// pushBack appends t.
//
//lint:allocfree pointer links only
func (b *bucket) pushBack(t *Timer) {
	if f := b.first; f == nil {
		t.prev = t
		b.first = t
	} else {
		t.prev = f.prev
		f.prev.next = t
		f.prev = t
	}
	t.next = nil
	t.bucket = b
}

// insertAfter places t behind pos, or at the front when pos is nil.
//
//lint:allocfree pointer links only
func (b *bucket) insertAfter(t, pos *Timer) {
	switch {
	case b.first == nil:
		t.prev, t.next = t, nil
		b.first = t
	case pos == nil:
		t.prev, t.next = b.first.prev, b.first
		b.first.prev = t
		b.first = t
	default:
		t.prev, t.next = pos, pos.next
		if pos.next == nil {
			b.first.prev = t
		} else {
			pos.next.prev = t
		}
		pos.next = t
	}
	t.bucket = b
}

// remove unlinks t from its bucket.
//
//lint:allocfree pointer links only
func (b *bucket) remove(t *Timer) {
	if t == b.first {
		b.first = t.next
		if t.next != nil {
			t.next.prev = t.prev
		}
	} else {
		t.prev.next = t.next
		if t.next == nil {
			b.first.prev = t.prev
		} else {
			t.next.prev = t.prev
		}
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
