package timerwheel

// SortedList is the classic BSD-callout baseline: a doubly-linked list kept
// sorted by expiry. O(n) Schedule, O(1) Cancel and per-timer Advance. It is
// the structure timing wheels were invented to replace, and serves as the
// lower baseline in the ablation benchmarks.
type SortedList struct {
	list bucket
	n    int
	seq  uint64
	last uint64
}

// NewSortedList returns an empty sorted-list queue.
func NewSortedList() *SortedList { return &SortedList{} }

// Name implements Queue.
func (s *SortedList) Name() string { return "sorted-list" }

// Len implements Queue.
func (s *SortedList) Len() int { return s.n }

// Schedule implements Queue.
func (s *SortedList) Schedule(t *Timer, expires uint64) {
	if t.queue != nil {
		_ = t.queue.Cancel(t)
	}
	s.seq++
	if expires <= s.last {
		expires = s.last + 1 // fire on the next tick, kernel-style rounding
	}
	t.expires = expires
	t.seq = s.seq
	t.queue = s
	// Walk from the back: workloads overwhelmingly append near the tail
	// (new timeouts are later than pending ones), so this is usually O(1).
	pos := s.list.last()
	for pos != nil && pos.expires > expires {
		pos = s.list.before(pos)
	}
	s.list.insertAfter(t, pos)
	s.n++
}

// Cancel implements Queue.
func (s *SortedList) Cancel(t *Timer) bool {
	if t.queue != Queue(s) || t.bucket == nil {
		return false
	}
	s.list.remove(t)
	t.queue = nil
	s.n--
	return true
}

// Advance implements Queue.
func (s *SortedList) Advance(now uint64, fire func(*Timer)) int {
	fired := 0
	for {
		first := s.list.first
		if first == nil || first.expires > now {
			break
		}
		s.list.remove(first)
		first.queue = nil
		s.n--
		fired++
		fire(first)
	}
	if now > s.last {
		s.last = now
	}
	return fired
}
