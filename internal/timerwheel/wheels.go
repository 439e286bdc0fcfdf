package timerwheel

// SimpleWheel is Varghese & Lauck's scheme 4: one bucket per tick within a
// fixed horizon, giving O(1) Schedule/Cancel/expiry for timers within the
// horizon. Timers beyond the horizon live in a sorted overflow list and
// migrate into the wheel as it turns. Good when timeouts are bounded (e.g.
// a TCP stack's per-connection timers).
type SimpleWheel struct {
	buckets  []bucket
	horizon  uint64
	now      uint64 // last advanced tick
	overflow *SortedList
	n        int
	seq      uint64
}

// NewSimpleWheel returns a wheel with the given horizon in ticks (rounded up
// to at least 2).
func NewSimpleWheel(horizon int) *SimpleWheel {
	if horizon < 2 {
		horizon = 2
	}
	return &SimpleWheel{
		buckets:  make([]bucket, horizon),
		horizon:  uint64(horizon),
		overflow: NewSortedList(),
	}
}

// Name implements Queue.
func (w *SimpleWheel) Name() string { return "simple-wheel" }

// Len implements Queue.
func (w *SimpleWheel) Len() int { return w.n + w.overflow.Len() }

// Schedule implements Queue.
func (w *SimpleWheel) Schedule(t *Timer, expires uint64) {
	if t.queue != nil {
		_ = t.queue.Cancel(t)
	}
	w.seq++
	if expires <= w.now {
		expires = w.now + 1 // fire on next tick, like a kernel rounding up
	}
	if expires-w.now >= w.horizon {
		w.overflow.Schedule(t, expires)
		// Claim ownership so Cancel routes through the wheel.
		t.queue = w
		return
	}
	t.expires = expires
	t.seq = w.seq
	t.queue = w
	w.buckets[expires%w.horizon].pushBack(t)
	w.n++
}

// Cancel implements Queue.
func (w *SimpleWheel) Cancel(t *Timer) bool {
	if t.queue != Queue(w) {
		return false
	}
	if t.bucket != nil {
		// In the overflow list the bucket belongs to the SortedList; check
		// whether it is one of ours.
		if t.bucket == &w.overflow.list {
			t.queue = w.overflow // hand back so the list's Cancel accepts it
			_ = w.overflow.Cancel(t)
			t.queue = nil
			return true
		}
		t.bucket.remove(t)
		t.queue = nil
		w.n--
		return true
	}
	return false
}

// Advance implements Queue.
func (w *SimpleWheel) Advance(now uint64, fire func(*Timer)) int {
	fired := 0
	for w.now < now {
		w.now++
		// Migrate overflow timers that are now within the horizon.
		for {
			first := w.overflow.list.first
			if first == nil || first.expires-w.now >= w.horizon {
				break
			}
			first.queue = w.overflow
			_ = w.overflow.Cancel(first)
			w.Schedule(first, first.expires)
		}
		b := &w.buckets[w.now%w.horizon]
		for {
			t := b.popFront()
			if t == nil {
				break
			}
			t.queue = nil
			w.n--
			fired++
			fire(t)
		}
	}
	return fired
}

// HashedWheel is Varghese & Lauck's scheme 6: a fixed number of buckets with
// timers hashed by expiry tick modulo the wheel size. Buckets are unsorted;
// each tick scans one bucket and fires the due entries. Vista's TCP/IP stack
// was re-architected around per-CPU wheels of this kind (Section 1 of the
// paper).
type HashedWheel struct {
	buckets []bucket
	mask    uint64
	now     uint64
	n       int
	seq     uint64
}

// NewHashedWheel returns a wheel with size buckets (rounded up to a power of
// two, minimum 4).
func NewHashedWheel(size int) *HashedWheel {
	n := 4
	for n < size {
		n <<= 1
	}
	return &HashedWheel{buckets: make([]bucket, n), mask: uint64(n - 1)}
}

// Name implements Queue.
func (w *HashedWheel) Name() string { return "hashed-wheel" }

// Len implements Queue.
func (w *HashedWheel) Len() int { return w.n }

// Schedule implements Queue.
func (w *HashedWheel) Schedule(t *Timer, expires uint64) {
	if t.queue != nil {
		_ = t.queue.Cancel(t)
	}
	w.seq++
	if expires <= w.now {
		expires = w.now + 1
	}
	t.expires = expires
	t.seq = w.seq
	t.queue = w
	w.buckets[expires&w.mask].pushBack(t)
	w.n++
}

// Cancel implements Queue.
func (w *HashedWheel) Cancel(t *Timer) bool {
	if t.queue != Queue(w) || t.bucket == nil {
		return false
	}
	t.bucket.remove(t)
	t.queue = nil
	w.n--
	return true
}

// Advance implements Queue.
func (w *HashedWheel) Advance(now uint64, fire func(*Timer)) int {
	fired := 0
	for w.now < now {
		w.now++
		b := &w.buckets[w.now&w.mask]
		// Scan the bucket; due timers fire, the rest stay for a later
		// revolution.
		for t := b.first; t != nil; {
			next := t.next
			if t.expires <= w.now {
				b.remove(t)
				t.queue = nil
				w.n--
				fired++
				fire(t)
			}
			t = next
		}
	}
	return fired
}
