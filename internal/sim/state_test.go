package sim

import "testing"

// TestStateDetectsDivergence: engines with different histories must not
// collide on the events hash (the keyframe verifier depends on it).
func TestStateDetectsDivergence(t *testing.T) {
	a := NewEngine(1)
	b := NewEngine(1)
	a.After(Second, "x", func() {})
	b.After(Second, "y", func() {}) // same instant, different name
	if a.State().EventsHash == b.State().EventsHash {
		t.Fatal("events hash ignored the event name")
	}
	c := NewEngine(1)
	c.After(2*Second, "x", func() {}) // same name, different instant
	if a.State().EventsHash == c.State().EventsHash {
		t.Fatal("events hash ignored the event instant")
	}
}

// TestRandDrawsCountsAndPreservesStream: the counting wrapper must not
// change the delivered random stream, and the draw count must advance with
// use so (seed, draws) pins the RNG position.
func TestRandDrawsCountsAndPreservesStream(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	if a.RandDraws() != 0 {
		t.Fatalf("fresh engine has %d draws", a.RandDraws())
	}
	var got, want []int64
	for i := 0; i < 64; i++ {
		want = append(want, b.Rand().Int63())
		got = append(got, a.Rand().Int63())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if a.RandDraws() == 0 {
		t.Fatal("draw count did not advance")
	}
	if a.RandDraws() != b.RandDraws() {
		t.Fatalf("equal use, unequal draw counts: %d vs %d", a.RandDraws(), b.RandDraws())
	}
	// Fast-forwarding a fresh engine by the same number of raw draws lands
	// on the same stream position — the replay-based RNG restore.
	c := NewEngine(42)
	for c.RandDraws() < a.RandDraws() {
		c.Rand().Int63()
	}
	if c.Rand().Int63() != a.Rand().Int63() {
		t.Fatal("draw-count fast-forward missed the stream position")
	}
}

// TestStopResume: Resume undoes Stop and the backlog replays at the
// original instants.
func TestStopResume(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Duration{Second, 2 * Second, 3 * Second} {
		e.After(d, "t", func() { fired = append(fired, e.Now()) })
	}
	e.Run(Time(Second)) // first event runs
	e.Stop()
	e.Run(10 * Time(Second))
	if len(fired) != 1 {
		t.Fatalf("stopped engine ran %d events, want 1", len(fired))
	}
	e.Resume()
	if e.Stopped() {
		t.Fatal("Resume left the engine stopped")
	}
	e.Run(10 * Time(Second))
	if len(fired) != 3 {
		t.Fatalf("resumed engine ran %d events, want 3", len(fired))
	}
	if fired[1] != 2*Time(Second) || fired[2] != 3*Time(Second) {
		t.Fatalf("backlog replayed at wrong instants: %v", fired)
	}
}

// TestForEachPendingOrder: the export walk delivers (when, seq) order.
func TestForEachPendingOrder(t *testing.T) {
	e := NewEngine(3)
	for i := 0; i < 100; i++ {
		e.After(Duration(e.Rand().Int63n(int64(Minute))), "t", func() {})
	}
	var last Time
	n := 0
	e.ForEachPending(func(when Time, name string) {
		if when < last {
			t.Fatalf("out-of-order walk: %v after %v", when, last)
		}
		last = when
		n++
	})
	if n != e.Pending() {
		t.Fatalf("walked %d of %d pending", n, e.Pending())
	}
}
