package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Second)
	if t1.Seconds() != 3 {
		t.Fatalf("Seconds = %v, want 3", t1.Seconds())
	}
	if d := t1.Sub(t0); d != 3*Second {
		t.Fatalf("Sub = %v, want 3s", d)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatal("ordering broken")
	}
	if got := DurationOfSeconds(0.004); got != 4*Millisecond {
		t.Fatalf("DurationOfSeconds(0.004) = %v", got)
	}
	if Duration(1500*Millisecond).String() != "1.5s" {
		t.Fatalf("String = %q", Duration(1500*Millisecond).String())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(2*Second, "b", func() { order = append(order, 2) })
	e.After(1*Second, "a", func() { order = append(order, 1) })
	e.After(3*Second, "c", func() { order = append(order, 3) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != Time(3*Second) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Second), "x", func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.After(Second, "x", func() { ran = true })
	if !e.Cancel(ev) {
		t.Fatal("first cancel should succeed")
	}
	if e.Cancel(ev) {
		t.Fatal("second cancel should fail")
	}
	e.RunAll()
	if ran {
		t.Fatal("canceled event ran")
	}
	if e.Stats().Canceled != 1 {
		t.Fatalf("Canceled = %d", e.Stats().Canceled)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []string
	e.After(1*Second, "a", func() { ran = append(ran, "a") })
	e.After(2*Second, "b", func() { ran = append(ran, "b") })
	e.After(5*Second, "c", func() { ran = append(ran, "c") })
	e.Run(Time(2 * Second))
	if len(ran) != 2 {
		t.Fatalf("ran = %v", ran)
	}
	if e.Now() != Time(2*Second) {
		t.Fatalf("now = %v", e.Now())
	}
	// Clock advances to `until` even when no event lies there.
	e.Run(Time(3 * Second))
	if e.Now() != Time(3*Second) {
		t.Fatalf("now = %v", e.Now())
	}
	e.Run(Time(10 * Second))
	if len(ran) != 3 {
		t.Fatalf("ran = %v", ran)
	}
}

func TestEngineWakeupBatching(t *testing.T) {
	e := NewEngine(1)
	// Three events at the same instant: one wakeup. Two further distinct
	// instants: two more wakeups.
	for i := 0; i < 3; i++ {
		e.At(Time(Second), "batch", func() {})
	}
	e.At(Time(2*Second), "x", func() {})
	e.At(Time(3*Second), "y", func() {})
	e.RunAll()
	if got := e.Stats().Wakeups; got != 3 {
		t.Fatalf("Wakeups = %d, want 3", got)
	}
	if got := e.Stats().Events; got != 5 {
		t.Fatalf("Events = %d, want 5", got)
	}
	if got := e.Stats().IdleTime; got != Duration(3*Second) {
		t.Fatalf("IdleTime = %v, want 3s", got)
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine(1)
	var at Time
	ev := e.After(1*Second, "x", func() { at = e.Now() })
	if got := e.Reschedule(ev, Time(4*Second)); !got.Pending() || got.When() != Time(4*Second) {
		t.Fatalf("rescheduled handle: pending=%v when=%v", got.Pending(), got.When())
	}
	e.RunAll()
	if at != Time(4*Second) {
		t.Fatalf("ran at %v, want 4s", at)
	}
	// Rescheduling a fired event is a programming error: the handle is
	// stale, and callers must check Pending and schedule anew.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic rescheduling a fired event")
		}
	}()
	e.Reschedule(ev, e.Now().Add(Second))
}

// TestEngineRescheduleFIFO pins the documented seq semantics: a rescheduled
// event restarts its FIFO tie-break, running after every event already
// scheduled at its new instant — exactly as if it had been canceled and
// re-added. This ordering is part of the golden-trace contract.
func TestEngineRescheduleFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []string
	ev := e.At(Time(Second), "moved", func() { order = append(order, "moved") })
	e.At(Time(2*Second), "a", func() { order = append(order, "a") })
	e.At(Time(2*Second), "b", func() { order = append(order, "b") })
	// Moving "moved" to 2s must place it after a and b, despite its
	// earlier original instant and smaller original seq.
	e.Reschedule(ev, Time(2*Second))
	// A later event at the same instant still runs after the move.
	e.At(Time(2*Second), "c", func() { order = append(order, "c") })
	e.RunAll()
	want := [...]string{"a", "b", "moved", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineRescheduleEarlier covers the queue-update direction ktimer's
// retick exercises: pulling a pending event to an earlier instant.
func TestEngineRescheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	var order []string
	ev := e.At(Time(10*Second), "moved", func() { order = append(order, "moved") })
	e.At(Time(5*Second), "mid", func() { order = append(order, "mid") })
	e.Reschedule(ev, Time(2*Second))
	e.RunAll()
	if len(order) != 2 || order[0] != "moved" || order[1] != "mid" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != Time(5*Second) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(Second, "x", func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(Time(0), "past", func() {})
}

func TestEngineNegativeAfterClamped(t *testing.T) {
	e := NewEngine(1)
	e.After(Second, "x", func() {})
	e.RunAll()
	ran := false
	e.After(-5*Second, "neg", func() { ran = true })
	e.RunAll()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != Time(Second) {
		t.Fatalf("clock moved: %v", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var rearm func()
	rearm = func() {
		n++
		if n == 5 {
			e.Stop()
			return
		}
		e.After(Second, "tick", rearm)
	}
	e.After(Second, "tick", rearm)
	e.Run(Time(Hour))
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
	if !e.Stopped() {
		t.Fatal("not stopped")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var fired []Time
		var step func()
		step = func() {
			fired = append(fired, e.Now())
			if len(fired) < 50 {
				e.After(Duration(e.Rand().Int63n(int64(Second))), "r", step)
			}
		}
		e.After(0, "r", step)
		e.RunAll()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Property: however events are scheduled, they execute in nondecreasing time
// order and the clock never runs backwards.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			e.After(Duration(d)%Duration(10*Second), "p", func() {
				times = append(times, e.Now())
			})
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerModelEnergy(t *testing.T) {
	m := LaptopPower()
	idle := Stats{}
	span := Duration(Hour)
	base := m.Energy(idle, span)
	if base <= 0 {
		t.Fatal("idle energy not positive")
	}
	// More wakeups strictly cost more energy.
	busy := Stats{Wakeups: 100000, Events: 100000}
	if m.Energy(busy, span) <= base {
		t.Fatal("wakeups are free")
	}
	// Average power of a fully idle hour equals idle watts.
	if got := m.AveragePower(idle, span); got != m.IdleWatts {
		t.Fatalf("idle power = %v", got)
	}
	// Busy time is capped at the span.
	absurd := Stats{Events: 1 << 40}
	if p := m.AveragePower(absurd, Duration(Second)); p > m.ActiveWatts+1 {
		t.Fatalf("power exceeded active ceiling: %v", p)
	}
	if m.Energy(idle, 0) != 0 {
		t.Fatal("zero span must cost zero")
	}
	if m.String() == "" {
		t.Fatal("empty description")
	}
}

func TestPowerModelMonotoneInWakeups(t *testing.T) {
	m := LaptopPower()
	span := Duration(Minute)
	last := -1.0
	for w := uint64(0); w <= 10000; w += 1000 {
		e := m.Energy(Stats{Wakeups: w}, span)
		if e <= last {
			t.Fatalf("not monotone at %d wakeups", w)
		}
		last = e
	}
}
