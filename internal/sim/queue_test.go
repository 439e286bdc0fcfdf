package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one pending event in the sorted-slice reference queue.
type refEvent struct {
	when  Time
	label int
}

// refQueue is the test oracle for the engine's event queue: a slice kept
// sorted by when, with each instant's events in scheduling order. Sequence
// numbers only grow, so that is the engine's (when, seq) order.
type refQueue struct {
	items []refEvent
}

// schedule inserts label's event after every queued event at or before
// when; rescheduling is remove plus schedule.
func (q *refQueue) schedule(when Time, label int) {
	i := sort.Search(len(q.items), func(i int) bool { return q.items[i].when > when })
	q.items = append(q.items, refEvent{})
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = refEvent{when: when, label: label}
}

// remove unlinks label's event and reports whether it was pending.
func (q *refQueue) remove(label int) bool {
	for i, it := range q.items {
		if it.label == label {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

func (q *refQueue) pop() refEvent {
	head := q.items[0]
	q.items = q.items[1:]
	return head
}

// TestEventQueueCrossCheck drives the engine and a sorted-slice reference
// queue through the same deterministic stream of 10k mixed
// At/Cancel/Reschedule/Step operations and requires identical firing
// schedules: the (when, seq) total order every trace depends on.
func TestEventQueueCrossCheck(t *testing.T) {
	type firing struct {
		at    Time
		label int
	}
	const ops = 10000
	rng := rand.New(rand.NewSource(99))
	e := NewEngine(0)
	var ref refQueue
	var got, want []firing
	var handles []Event // handles[i] belongs to label i+1
	canceled := uint64(0)
	step := func() {
		if len(ref.items) > 0 {
			head := ref.pop()
			want = append(want, firing{head.when, head.label})
		}
		e.Step()
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			// Schedule with a spread of horizons: same-instant ties,
			// sub-millisecond deltas, minutes, and delays beyond 52 days.
			l := len(handles) + 1
			var d Duration
			switch rng.Intn(5) {
			case 0:
				d = 0 // ties at the current instant
			case 1:
				d = Duration(rng.Int63n(int64(2 * Millisecond)))
			case 2:
				d = Duration(rng.Int63n(int64(5 * Second)))
			case 3:
				d = Duration(rng.Int63n(int64(10 * Minute)))
			default:
				d = 53*24*Hour + Duration(rng.Int63n(int64(2*365*24*Hour)))
			}
			ref.schedule(e.Now().Add(d), l)
			handles = append(handles, e.After(d, "x", func() {
				got = append(got, firing{e.Now(), l})
			}))
		case r < 7 && len(handles) > 0:
			// Cancel a random handle; stale ones must be no-ops.
			l := rng.Intn(len(handles)) + 1
			pending := ref.remove(l)
			if ok := e.Cancel(handles[l-1]); ok != pending {
				t.Fatalf("op %d: Cancel(label %d) = %v, reference pending %v", i, l, ok, pending)
			}
			if pending {
				canceled++
			}
		case r < 9 && len(handles) > 0:
			// Reschedule a random still-pending handle, earlier or later.
			l := rng.Intn(len(handles)) + 1
			if h := handles[l-1]; h.Pending() {
				at := e.Now().Add(Duration(rng.Int63n(int64(30 * Second))))
				if !ref.remove(l) {
					t.Fatalf("op %d: label %d pending in the engine, not in the reference", i, l)
				}
				ref.schedule(at, l)
				e.Reschedule(h, at)
			}
		default:
			step()
		}
		if e.Pending() != len(ref.items) {
			t.Fatalf("op %d: engine has %d pending, reference %d", i, e.Pending(), len(ref.items))
		}
	}
	for len(ref.items) > 0 {
		step()
	}
	if e.Step() {
		t.Fatal("engine fired an event the reference does not hold")
	}
	if len(want) == 0 {
		t.Fatal("no events fired; the cross-check exercised nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("firing counts differ: engine %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d differs: engine %+v, reference %+v", i, got[i], want[i])
		}
	}
	if st := e.Stats(); st.Events != uint64(len(want)) || st.Canceled != canceled {
		t.Fatalf("stats %+v, want %d events and %d canceled", st, len(want), canceled)
	}
}

// TestWheelQueueFarHorizon checks that events from a millisecond out to
// well past the 2^32-tick × 2^20 ns (~52 day) horizon of a Linux-style
// timing wheel fire in order at exactly their scheduled times: the heap
// has no horizon, so nothing may be clamped and re-filed.
func TestWheelQueueFarHorizon(t *testing.T) {
	e := NewEngine(0)
	var order []int
	at := make(map[int]Time)
	horizon := Duration(1<<32-1) << 20
	delays := []Duration{
		Millisecond,
		500 * Millisecond,
		30 * Second,
		20 * Minute,
		30 * Hour,
		horizon + 24*Hour,
		horizon + 40*24*Hour,
		2*horizon + 7*24*Hour,
	}
	for i, d := range delays {
		i, d := i, d
		e.After(d, "far", func() {
			order = append(order, i)
			at[i] = e.Now()
		})
	}
	e.RunAll()
	if len(order) != len(delays) {
		t.Fatalf("fired %d of %d events: %v", len(order), len(delays), order)
	}
	for i, d := range delays {
		if order[i] != i {
			t.Fatalf("out of order: %v", order)
		}
		if at[i] != Time(d) {
			t.Fatalf("event %d fired at %v, want %v (early/late delivery)", i, at[i], Time(d))
		}
	}
}

// TestEngineZeroAllocSteadyState is the acceptance guard: once the freelist
// is warm, the At+Step hot path must run without a single heap allocation.
// Run under -count=1 in CI (scripts/check.sh) so a regression fails the
// build.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(0)
	fn := func() {}
	// Warm the freelist and the heap queue's backing slice.
	for i := 0; i < 64; i++ {
		e.After(Duration(i)*Microsecond, "warm", fn)
	}
	e.RunAll()
	if allocs := testing.AllocsPerRun(1000, func() {
		e.After(50*Microsecond, "hot", fn)
		e.Step()
	}); allocs != 0 {
		t.Errorf("At+Step steady state allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ev := e.After(50*Microsecond, "hot", fn)
		e.Reschedule(ev, e.Now().Add(80*Microsecond))
		if !e.Cancel(ev) {
			t.Fatal("cancel failed")
		}
	}); allocs != 0 {
		t.Errorf("After+Reschedule+Cancel allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEventAllocsPlateau pins the freelist accounting: node allocations
// track the high-water mark of simultaneously pending events, not the total
// scheduled.
func TestEventAllocsPlateau(t *testing.T) {
	e := NewEngine(0)
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.After(Duration(i)*Millisecond, "w", fn)
	}
	e.RunAll()
	if got := e.Stats().EventAllocs; got != 8 {
		t.Fatalf("EventAllocs = %d, want 8", got)
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 8; i++ {
			e.After(Duration(i)*Millisecond, "w", fn)
		}
		e.RunAll()
	}
	if got := e.Stats().EventAllocs; got != 8 {
		t.Fatalf("EventAllocs grew to %d after recycling, want plateau at 8", got)
	}
}

// TestStaleHandleSafety checks that handles to fired events stay inert after
// their node is recycled for an unrelated event: Pending is false, Cancel is
// a no-op, and the new event is unaffected.
func TestStaleHandleSafety(t *testing.T) {
	e := NewEngine(0)
	first := e.After(Millisecond, "first", func() {})
	e.RunAll()
	ran := false
	second := e.After(Millisecond, "second", func() { ran = true })
	if first.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if e.Cancel(first) {
		t.Fatal("stale handle canceled something")
	}
	if !second.Pending() {
		t.Fatal("stale cancel disturbed the live event")
	}
	e.RunAll()
	if !ran {
		t.Fatal("live event did not run")
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(0)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(50*Microsecond, "bench", fn)
		e.Step()
	}
}

// BenchmarkEnginePendingLoad measures scheduling against a populated queue,
// where the heap pays O(log n) sift costs.
func BenchmarkEnginePendingLoad(b *testing.B) {
	e := NewEngine(0)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.After(Duration(i+1)*Millisecond, "load", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(Duration(i%4000)*Millisecond+Microsecond, "bench", fn)
		e.Cancel(ev)
	}
}
