package timerwheel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func allQueues() map[string]Queue {
	return map[string]Queue{
		"sorted-list":        NewSortedList(),
		"binary-heap":        NewHeap(),
		"simple-wheel":       NewSimpleWheel(64),
		"hashed-wheel":       NewHashedWheel(256),
		"hierarchical-wheel": NewHierarchicalWheel(),
	}
}

func TestBasicScheduleFire(t *testing.T) {
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			var fired []uint64
			timers := make([]*Timer, 5)
			for i := range timers {
				timers[i] = &Timer{Payload: uint64(i)}
			}
			q.Schedule(timers[0], 10)
			q.Schedule(timers[1], 5)
			q.Schedule(timers[2], 10)
			q.Schedule(timers[3], 300) // beyond simple-wheel horizon, tv2 range
			q.Schedule(timers[4], 7)
			if q.Len() != 5 {
				t.Fatalf("Len = %d", q.Len())
			}
			for tick := uint64(1); tick <= 400; tick++ {
				q.Advance(tick, func(tm *Timer) {
					if tm.Pending() {
						t.Error("fired timer still pending")
					}
					fired = append(fired, tm.Payload.(uint64))
				})
			}
			want := []uint64{1, 4, 0, 2, 3}
			if len(fired) != len(want) {
				t.Fatalf("fired %v, want %v", fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("fired %v, want %v", fired, want)
				}
			}
			if q.Len() != 0 {
				t.Fatalf("Len after drain = %d", q.Len())
			}
		})
	}
}

func TestCancel(t *testing.T) {
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			tm := &Timer{}
			q.Schedule(tm, 5)
			if !tm.Pending() {
				t.Fatal("not pending after schedule")
			}
			if !q.Cancel(tm) {
				t.Fatal("cancel failed")
			}
			if tm.Pending() {
				t.Fatal("pending after cancel")
			}
			if q.Cancel(tm) {
				t.Fatal("double cancel succeeded")
			}
			fired := 0
			q.Advance(100, func(*Timer) { fired++ })
			if fired != 0 {
				t.Fatalf("canceled timer fired")
			}
		})
	}
}

func TestCancelDistantTimer(t *testing.T) {
	// Exercises the simple wheel's overflow list and the hierarchical
	// wheel's outer levels.
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			tm := &Timer{}
			q.Schedule(tm, 1_000_000)
			if q.Len() != 1 {
				t.Fatalf("Len = %d", q.Len())
			}
			if !q.Cancel(tm) {
				t.Fatal("cancel failed")
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after cancel", q.Len())
			}
		})
	}
}

func TestRescheduleMovesTimer(t *testing.T) {
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			tm := &Timer{}
			q.Schedule(tm, 5)
			q.Schedule(tm, 50) // Linux mod_timer: move, not duplicate
			if q.Len() != 1 {
				t.Fatalf("Len = %d, want 1", q.Len())
			}
			var at []uint64
			for tick := uint64(1); tick <= 60; tick++ {
				q.Advance(tick, func(*Timer) { at = append(at, tick) })
			}
			if len(at) != 1 || at[0] != 50 {
				t.Fatalf("fired at %v, want [50]", at)
			}
		})
	}
}

func TestPastScheduleFiresNextTick(t *testing.T) {
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			q.Advance(100, func(*Timer) {})
			tm := &Timer{}
			q.Schedule(tm, 3) // long past
			var at []uint64
			for tick := uint64(101); tick <= 110; tick++ {
				q.Advance(tick, func(*Timer) { at = append(at, tick) })
			}
			if len(at) != 1 || at[0] != 101 {
				t.Fatalf("fired at %v, want [101]", at)
			}
		})
	}
}

func TestSameTickFIFOListBased(t *testing.T) {
	// The list-based structures preserve insertion order within a tick.
	for _, q := range []Queue{NewSortedList(), NewHeap(), NewHierarchicalWheel()} {
		t.Run(q.Name(), func(t *testing.T) {
			var fired []int
			for i := 0; i < 8; i++ {
				q.Schedule(&Timer{Payload: i}, 5)
			}
			q.Advance(5, func(tm *Timer) { fired = append(fired, tm.Payload.(int)) })
			for i, v := range fired {
				if v != i {
					t.Fatalf("order %v", fired)
				}
			}
		})
	}
}

func TestHierarchicalCascadeBoundaries(t *testing.T) {
	// Timers placed exactly at level boundaries must survive cascading.
	q := NewHierarchicalWheel()
	boundaries := []uint64{
		tvrSize - 1, tvrSize, tvrSize + 1,
		1<<(tvrBits+tvnBits) - 1, 1 << (tvrBits + tvnBits), 1<<(tvrBits+tvnBits) + 1,
		1 << (tvrBits + 2*tvnBits), 1 << (tvrBits + 3*tvnBits),
	}
	firedAt := make(map[uint64]uint64)
	for _, b := range boundaries {
		b := b
		q.Schedule(&Timer{Payload: b}, b)
	}
	limit := uint64(1<<(tvrBits+3*tvnBits)) + 10
	for tick := uint64(1); tick <= limit; tick += 1 {
		q.Advance(tick, func(tm *Timer) { firedAt[tm.Payload.(uint64)] = tick })
		if len(firedAt) == len(boundaries) {
			break
		}
	}
	for _, b := range boundaries {
		if firedAt[b] != b {
			t.Errorf("timer for tick %d fired at %d", b, firedAt[b])
		}
	}
}

func TestHierarchicalMaxIntervalCapped(t *testing.T) {
	q := NewHierarchicalWheel()
	tm := &Timer{}
	q.Schedule(tm, 1<<62) // absurd; kernel caps at max representable
	if q.Len() != 1 {
		t.Fatal("not scheduled")
	}
	if !q.Cancel(tm) {
		t.Fatal("cancel failed")
	}
}

// referenceModel is a trivially correct queue: a map scanned on every tick.
type referenceModel struct {
	timers map[*Timer]uint64
	last   uint64
}

func newReference() *referenceModel { return &referenceModel{timers: map[*Timer]uint64{}} }

func (r *referenceModel) schedule(t *Timer, expires uint64) {
	if expires <= r.last {
		expires = r.last + 1
	}
	r.timers[t] = expires
}
func (r *referenceModel) cancel(t *Timer) bool {
	_, ok := r.timers[t]
	delete(r.timers, t)
	return ok
}
func (r *referenceModel) advance(now uint64) []int {
	var fired []int
	for t, e := range r.timers {
		if e <= now {
			fired = append(fired, t.Payload.(int))
			delete(r.timers, t)
		}
	}
	r.last = now
	sort.Ints(fired)
	return fired
}

// TestAgainstReferenceModel drives every implementation with the same random
// operation sequence and requires the per-tick fired sets to match a naive
// model exactly.
func TestAgainstReferenceModel(t *testing.T) {
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(123))
			ref := newReference()
			timers := make([]*Timer, 200)
			for i := range timers {
				timers[i] = &Timer{Payload: i}
			}
			now := uint64(0)
			for step := 0; step < 5000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // schedule/reschedule
					tm := timers[rng.Intn(len(timers))]
					exp := now + uint64(rng.Intn(2000))
					q.Schedule(tm, exp)
					ref.schedule(tm, exp)
				case op < 7: // cancel
					tm := timers[rng.Intn(len(timers))]
					got := q.Cancel(tm)
					want := ref.cancel(tm)
					if got != want {
						t.Fatalf("step %d: cancel = %v, reference = %v", step, got, want)
					}
				default: // advance 1..16 ticks, one at a time
					n := uint64(rng.Intn(16) + 1)
					for i := uint64(0); i < n; i++ {
						now++
						var fired []int
						q.Advance(now, func(tm *Timer) { fired = append(fired, tm.Payload.(int)) })
						sort.Ints(fired)
						want := ref.advance(now)
						if len(fired) != len(want) {
							t.Fatalf("step %d tick %d: fired %v, want %v", step, now, fired, want)
						}
						for j := range want {
							if fired[j] != want[j] {
								t.Fatalf("step %d tick %d: fired %v, want %v", step, now, fired, want)
							}
						}
					}
				}
				if q.Len() != len(ref.timers) {
					t.Fatalf("step %d: Len = %d, reference = %d", step, q.Len(), len(ref.timers))
				}
			}
		})
	}
}

// Property: an idle queue (no due timers) fires nothing however far it is
// advanced, and all pending timers remain.
func TestIdleAdvanceProperty(t *testing.T) {
	f := func(offsets []uint16, jump uint16) bool {
		for _, q := range allQueues() {
			base := uint64(1000)
			q.Advance(base, func(*Timer) {})
			for _, o := range offsets {
				q.Schedule(&Timer{Payload: 0}, base+uint64(jump)+uint64(o)+1)
			}
			fired := 0
			q.Advance(base+uint64(jump), func(*Timer) { fired++ })
			if fired != 0 || q.Len() != len(offsets) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func benchQueue(b *testing.B, mk func() Queue) {
	q := mk()
	rng := rand.New(rand.NewSource(1))
	timers := make([]*Timer, 4096)
	for i := range timers {
		timers[i] = &Timer{Payload: i}
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := timers[i%len(timers)]
		q.Schedule(tm, now+uint64(rng.Intn(512)+1))
		if i%4 == 3 {
			now++
			q.Advance(now, func(*Timer) {})
		}
		if i%7 == 6 {
			q.Cancel(timers[rng.Intn(len(timers))])
		}
	}
}

func BenchmarkQueueSortedList(b *testing.B) { benchQueue(b, func() Queue { return NewSortedList() }) }
func BenchmarkQueueBinaryHeap(b *testing.B) { benchQueue(b, func() Queue { return NewHeap() }) }
func BenchmarkQueueSimpleWheel(b *testing.B) {
	benchQueue(b, func() Queue { return NewSimpleWheel(1024) })
}
func BenchmarkQueueHashedWheel(b *testing.B) {
	benchQueue(b, func() Queue { return NewHashedWheel(256) })
}
func BenchmarkQueueHierarchical(b *testing.B) {
	benchQueue(b, func() Queue { return NewHierarchicalWheel() })
}
