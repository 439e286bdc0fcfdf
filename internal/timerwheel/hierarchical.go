package timerwheel

// HierarchicalWheel is Varghese & Lauck's scheme 7 as implemented by the
// Linux kernel's timer.c through 2.6.23 (the version the paper instruments):
// a first-level wheel of 256 one-tick slots (tv1) and four higher levels of
// 64 slots each (tv2..tv5), with coarser timers cascading down one level each
// time the level below wraps. All operations are O(1) amortized; the cascade
// is the well-known worst-case hiccup.
const (
	tvrBits = 8
	tvrSize = 1 << tvrBits // 256
	tvrMask = tvrSize - 1
	tvnBits = 6
	tvnSize = 1 << tvnBits // 64
	tvnMask = tvnSize - 1
)

// HierarchicalWheel implements Queue. Its list heads are one pointer each:
// tv1's 256 sit inline, and each outer level's 64 are allocated when a
// timer first lands in it. A wheel whose timers all fall within tv1's
// range takes 2,304 B of heap (its 2,104 B rounded up to a size class); a
// fleet host's, whose timers also use tv2 and tv3, 3,328 B. A level once
// built stays, as do its buckets, which pending timers point at.
type HierarchicalWheel struct {
	tv1 [tvrSize]bucket
	tvn [4]*[tvnSize]bucket // tv2..tv5, nil until first used
	now uint64              // base.timer_jiffies: next tick to process
	n   int
	seq uint64
}

// NewHierarchicalWheel returns a wheel whose "current tick" starts at zero.
func NewHierarchicalWheel() *HierarchicalWheel {
	// now is the next tick to process; nothing can expire at tick 0.
	return &HierarchicalWheel{now: 1}
}

// Name implements Queue.
func (w *HierarchicalWheel) Name() string { return "hierarchical-wheel" }

// Len implements Queue.
func (w *HierarchicalWheel) Len() int { return w.n }

// vecFor returns the bucket a timer expiring at `expires` belongs in, given
// the wheel's current base tick — a transliteration of Linux
// internal_add_timer().
//
//lint:allocfree bucket choice; an outer level's one allocation is the out-of-line build
func (w *HierarchicalWheel) vecFor(expires uint64) *bucket {
	// idx is the distance to expiry from the wheel's base.
	idx := int64(expires) - int64(w.now)
	switch {
	case idx < 0:
		// Already expired: fire on the next processed tick.
		return &w.tv1[w.now&tvrMask]
	case idx < tvrSize:
		return &w.tv1[expires&tvrMask]
	case idx < 1<<(tvrBits+tvnBits):
		return &w.level(0)[(expires>>tvrBits)&tvnMask]
	case idx < 1<<(tvrBits+2*tvnBits):
		return &w.level(1)[(expires>>(tvrBits+tvnBits))&tvnMask]
	case idx < 1<<(tvrBits+3*tvnBits):
		return &w.level(2)[(expires>>(tvrBits+2*tvnBits))&tvnMask]
	default:
		// Cap at the maximum representable interval, like the kernel.
		max := uint64(1)<<(tvrBits+4*tvnBits) - 1
		if uint64(idx) > max {
			expires = max + w.now
		}
		return &w.level(3)[(expires>>(tvrBits+3*tvnBits))&tvnMask]
	}
}

// level returns outer level i (tv2 for 0), building it on first use.
//
//lint:allocfree one nil check; the allocation is the out-of-line build, once per level
func (w *HierarchicalWheel) level(i int) *[tvnSize]bucket {
	if w.tvn[i] == nil {
		w.build(i)
	}
	return w.tvn[i]
}

// build allocates outer level i.
//
//go:noinline
func (w *HierarchicalWheel) build(i int) {
	w.tvn[i] = new([tvnSize]bucket)
}

// Schedule implements Queue.
//
//lint:allocfree the mod_timer path: bucket choice plus a list append
func (w *HierarchicalWheel) Schedule(t *Timer, expires uint64) {
	if t.queue != nil {
		_ = t.queue.Cancel(t)
	}
	w.seq++
	t.expires = expires
	t.seq = w.seq
	t.queue = w
	w.vecFor(expires).pushBack(t)
	w.n++
}

// Cancel implements Queue.
//
//lint:allocfree the del_timer path: one list unlink
func (w *HierarchicalWheel) Cancel(t *Timer) bool {
	if t.queue != Queue(w) || t.bucket == nil {
		return false
	}
	t.bucket.remove(t)
	t.queue = nil
	w.n--
	return true
}

// cascade re-files every timer in level/index one level down. Returns index,
// so the caller can chain cascades exactly as run_timers() does.
//
//lint:allocfree re-files list entries in place
func (w *HierarchicalWheel) cascade(level, index int) int {
	l := w.tvn[level]
	if l == nil {
		return index
	}
	b := &l[index]
	for {
		t := b.popFront()
		if t == nil {
			break
		}
		w.vecFor(t.expires).pushBack(t)
	}
	return index
}

// Advance implements Queue. It processes each tick from the base up to and
// including now, cascading at wrap points, then firing tv1's slot — the
// structure of Linux __run_timers.
//
//lint:allocfree the tick path: cascades and list pops; fire is the caller's bound callback
func (w *HierarchicalWheel) Advance(now uint64, fire func(*Timer)) int {
	fired := 0
	for w.now <= now {
		index := int(w.now & tvrMask)
		if index == 0 &&
			w.cascade(0, int(w.now>>tvrBits)&tvnMask) == 0 &&
			w.cascade(1, int(w.now>>(tvrBits+tvnBits))&tvnMask) == 0 &&
			w.cascade(2, int(w.now>>(tvrBits+2*tvnBits))&tvnMask) == 0 {
			w.cascade(3, int(w.now>>(tvrBits+3*tvnBits))&tvnMask)
		}
		w.now++
		b := &w.tv1[index]
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
