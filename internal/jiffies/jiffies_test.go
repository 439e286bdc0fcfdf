package jiffies

import (
	"testing"
	"unsafe"

	"timerstudy/internal/sim"
	"timerstudy/internal/timerwheel"
	"timerstudy/internal/trace"
)

func newTestBase(opts ...Option) (*sim.Engine, *trace.Buffer, *Base) {
	eng := sim.NewEngine(1)
	tr := trace.NewBuffer(1 << 20)
	return eng, tr, NewBase(eng, tr, opts...)
}

func TestConversions(t *testing.T) {
	if JiffyDuration != 4*sim.Millisecond {
		t.Fatalf("JiffyDuration = %v", JiffyDuration)
	}
	if TimeToJiffies(sim.Time(0)) != 0 {
		t.Fatal("t=0")
	}
	if TimeToJiffies(sim.Time(4*sim.Millisecond)) != 1 {
		t.Fatal("t=4ms")
	}
	if TimeToJiffies(sim.Time(4*sim.Millisecond+1)) != 2 {
		t.Fatal("rounding up failed")
	}
	if MsecsToJiffies(1*sim.Millisecond) != 1 {
		t.Fatal("1ms should round up to 1 jiffy")
	}
	if MsecsToJiffies(8*sim.Millisecond) != 2 {
		t.Fatal("8ms = 2 jiffies")
	}
	if MsecsToJiffies(0) != 0 {
		t.Fatal("0")
	}
	if JiffiesToTime(250) != sim.Time(sim.Second) {
		t.Fatal("250 jiffies = 1s at HZ=250")
	}
}

func TestTimerFiresOnJiffyBoundary(t *testing.T) {
	eng, tr, b := newTestBase()
	var firedAt sim.Time
	tm := &Timer{Origin: "test"}
	b.Init(tm, "kernel/test", 0, func() { firedAt = eng.Now() })
	// Arm for 10 ms → jiffy 3 (12 ms), the quantization the paper notes.
	b.ModTimeout(tm, 10*sim.Millisecond)
	eng.Run(sim.Time(sim.Second))
	if firedAt != sim.Time(12*sim.Millisecond) {
		t.Fatalf("fired at %v, want 12ms", firedAt)
	}
	recs := tr.Records()
	var ops []trace.Op
	for _, r := range recs {
		ops = append(ops, r.Op)
	}
	if len(recs) != 3 || recs[0].Op != trace.OpInit || recs[1].Op != trace.OpSet || recs[2].Op != trace.OpExpire {
		t.Fatalf("trace ops = %v", ops)
	}
	if recs[1].Timeout != int64(12*sim.Millisecond) {
		t.Fatalf("recorded timeout = %v", recs[1].Timeout)
	}
}

func TestModOnUninitializedPanics(t *testing.T) {
	_, _, b := newTestBase()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Mod(&Timer{}, 10)
}

func TestDelCancels(t *testing.T) {
	eng, tr, b := newTestBase()
	fired := false
	tm := &Timer{}
	b.Init(tm, "kernel/test", 0, func() { fired = true })
	b.ModTimeout(tm, 100*sim.Millisecond)
	if !b.Del(tm) {
		t.Fatal("del of pending timer returned false")
	}
	if b.Del(tm) {
		t.Fatal("double-del returned true")
	}
	eng.Run(sim.Time(sim.Second))
	if fired {
		t.Fatal("canceled timer fired")
	}
	// Both del calls are accesses and appear in the trace, as the paper's
	// instrumentation records repeated deletions.
	if got := tr.Counters().ByOp[trace.OpCancel]; got != 2 {
		t.Fatalf("cancel records = %d, want 2", got)
	}
}

func TestPeriodicReset(t *testing.T) {
	eng, _, b := newTestBase()
	var fires []sim.Time
	tm := &Timer{}
	b.Init(tm, "kernel/periodic", 0, func() {
		fires = append(fires, eng.Now())
		if len(fires) < 5 {
			b.ModTimeout(tm, 100*sim.Millisecond)
		}
	})
	b.ModTimeout(tm, 100*sim.Millisecond)
	eng.Run(sim.Time(sim.Second))
	if len(fires) != 5 {
		t.Fatalf("fires = %v", fires)
	}
	for i, ft := range fires {
		want := sim.Time(100 * sim.Millisecond * sim.Duration(i+1))
		if ft != want {
			t.Fatalf("fire %d at %v, want %v", i, ft, want)
		}
	}
}

func TestRoundJiffies(t *testing.T) {
	eng, _, b := newTestBase()
	eng.Run(sim.Time(sim.Second)) // jiffy = 250
	if b.Jiffies() != 250 {
		t.Fatalf("jiffies = %d", b.Jiffies())
	}
	// 250+10 = 260, rem 10 < 62 → rounds down to 250 which is in the past →
	// returns the original value.
	if got := b.RoundJiffies(260); got != 260 {
		t.Fatalf("RoundJiffies(260) = %d", got)
	}
	// 250+100 = 350, rem 100 ≥ 62 → rounds up to 500.
	if got := b.RoundJiffies(350); got != 500 {
		t.Fatalf("RoundJiffies(350) = %d", got)
	}
	// Relative form.
	if got := b.RoundJiffiesRelative(100); got != 250 {
		t.Fatalf("RoundJiffiesRelative(100) = %d", got)
	}
}

func TestRoundJiffiesBatchesWakeups(t *testing.T) {
	// Ten 1-second-ish periodic timers with random phases: rounded, they
	// expire together and the engine sees far fewer wakeups.
	countWakeups := func(round bool) uint64 {
		eng := sim.NewEngine(7)
		tr := trace.NewBuffer(0)
		b := NewBase(eng, tr, WithNoHZ(true))
		for i := 0; i < 10; i++ {
			tm := &Timer{}
			offset := sim.Duration(eng.Rand().Int63n(int64(sim.Second)))
			var rearm func()
			rearm = func() {
				dj := MsecsToJiffies(sim.Second)
				if round {
					dj = b.RoundJiffiesRelative(dj)
				}
				b.Mod(tm, b.Jiffies()+dj)
			}
			b.Init(tm, "kernel/housekeeping", 0, rearm)
			eng.At(sim.Time(offset), "arm", rearm)
		}
		eng.Run(sim.Time(30 * sim.Second))
		return eng.Stats().Wakeups
	}
	plain := countWakeups(false)
	rounded := countWakeups(true)
	if rounded >= plain {
		t.Fatalf("rounding did not reduce wakeups: %d → %d", plain, rounded)
	}
}

func TestDynticksSkipsIdleTicks(t *testing.T) {
	run := func(nohz bool) uint64 {
		eng := sim.NewEngine(1)
		b := NewBase(eng, trace.NewBuffer(0), WithNoHZ(nohz))
		tm := &Timer{}
		b.Init(tm, "kernel/one", 0, func() {})
		b.ModTimeout(tm, 10*sim.Second)
		eng.Run(sim.Time(30 * sim.Second))
		return b.TickCount
	}
	periodic := run(false)
	tickless := run(true)
	if periodic < 30*HZ-5 {
		t.Fatalf("periodic ticks = %d, want ≈%d", periodic, 30*HZ)
	}
	// Tickless: ~1 tick/s idle cap plus the timer expiry.
	if tickless > 40 {
		t.Fatalf("tickless ticks = %d, want ≤40", tickless)
	}
}

func TestDynticksStillFiresOnTime(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewBase(eng, trace.NewBuffer(0), WithNoHZ(true))
	var firedAt sim.Time
	tm := &Timer{}
	b.Init(tm, "kernel/x", 0, func() { firedAt = eng.Now() })
	b.ModTimeout(tm, 5*sim.Second)
	eng.Run(sim.Time(10 * sim.Second))
	if firedAt != sim.Time(5*sim.Second) {
		t.Fatalf("fired at %v, want 5s", firedAt)
	}
}

func TestDynticksRetickOnNewNearTimer(t *testing.T) {
	// While sleeping toward a far-out timer, arming a near timer must pull
	// the tick forward.
	eng := sim.NewEngine(1)
	b := NewBase(eng, trace.NewBuffer(0), WithNoHZ(true))
	far := &Timer{}
	b.Init(far, "kernel/far", 0, func() {})
	b.ModTimeout(far, 20*sim.Second)
	var firedAt sim.Time
	near := &Timer{}
	b.Init(near, "kernel/near", 0, func() { firedAt = eng.Now() })
	eng.At(sim.Time(2*sim.Second), "arm-near", func() {
		b.ModTimeout(near, 50*sim.Millisecond)
	})
	eng.Run(sim.Time(10 * sim.Second))
	want := sim.Time(2*sim.Second + 52*sim.Millisecond) // next jiffy ≥ 2.05s
	if firedAt != want {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestDeferrableDoesNotWakeIdle(t *testing.T) {
	// A deferrable timer alone must not generate wakeups beyond the 1 s
	// idle cap; it fires when something else wakes the CPU.
	eng := sim.NewEngine(1)
	b := NewBase(eng, trace.NewBuffer(0), WithNoHZ(true))
	var deferredAt sim.Time
	d := &Timer{Deferrable: true}
	b.Init(d, "kernel/deferrable", 0, func() { deferredAt = eng.Now() })
	b.ModTimeout(d, 100*sim.Millisecond)
	// A non-deferrable timer wakes the CPU at 3 s.
	n := &Timer{}
	b.Init(n, "kernel/real", 0, func() {})
	b.ModTimeout(n, 3*sim.Second)
	eng.Run(sim.Time(5 * sim.Second))
	if deferredAt == 0 {
		t.Fatal("deferrable timer never fired")
	}
	// It must NOT have fired at its nominal 100 ms expiry; the idle cap
	// wakes the CPU at 1 s and the deferrable fires then.
	if deferredAt < sim.Time(sim.Second) {
		t.Fatalf("deferrable fired too early: %v", deferredAt)
	}
}

// TestTickZeroAlloc guards the steady-state tick: a tick that expires a
// periodic timer, whose callback re-arms it, must not allocate. Run under
// -count=1 in CI (scripts/check.sh) so a regression fails.
func TestTickZeroAlloc(t *testing.T) {
	eng, _, b := newTestBase()
	tm := &Timer{}
	fires := 0
	b.Init(tm, "kernel/periodic", 0, func() {
		fires++
		b.Mod(tm, b.Jiffies()+1)
	})
	b.Mod(tm, b.Jiffies()+1)
	// Warm up: the engine's freelist and the trace buffer's storage.
	eng.Run(eng.Now().Add(100 * JiffyDuration))
	before := fires
	if allocs := testing.AllocsPerRun(1000, func() {
		eng.Run(eng.Now().Add(JiffyDuration))
	}); allocs != 0 {
		t.Errorf("tick with expire and re-arm allocates %.1f objects/op, want 0", allocs)
	}
	if fires-before < 1000 {
		t.Fatalf("timer fired %d times over 1001 ticks", fires-before)
	}
}

// TestTimerSize pins the timer_list analog at 144 bytes, a malloc size
// class: the syscall layer and the daemons hold dozens per fleet host, and
// a field order that pads it to 152 bytes moves each into the 160-byte
// class.
func TestTimerSize(t *testing.T) {
	if got := unsafe.Sizeof(Timer{}); got > 144 {
		t.Errorf("Timer is %d B, want <= 144", got)
	}
}

// TestDynticksHeapOnlyUnderNoHZ checks that only a NO_HZ base fills the
// dynticks next-expiry heap: a periodic base never reads it, so entries
// there would only pile up as garbage.
func TestDynticksHeapOnlyUnderNoHZ(t *testing.T) {
	for _, nohz := range []bool{false, true} {
		eng := sim.NewEngine(1)
		b := NewBase(eng, trace.NewBuffer(0), WithNoHZ(nohz))
		tm := &Timer{}
		b.Init(tm, "kernel/x", 0, func() {})
		for i := 0; i < 1000; i++ {
			b.ModTimeout(tm, sim.Duration(i+1)*sim.Millisecond)
		}
		if got := len(b.nextHeap); nohz && got == 0 {
			t.Errorf("NO_HZ base: dynticks heap empty after 1000 Mods")
		} else if !nohz && got != 0 {
			t.Errorf("periodic base: dynticks heap holds %d entries after 1000 Mods, want 0", got)
		}
	}
}

// TestWithQueueBuildsNoDefaultWheel checks that NewBase builds its default
// hierarchical wheel only when no WithQueue option supplies one.
func TestWithQueueBuildsNoDefaultWheel(t *testing.T) {
	tr := trace.NewBuffer(0)
	q := WithQueue(timerwheel.NewHeap())
	def := testing.AllocsPerRun(100, func() { NewBase(sim.NewEngine(1), tr) })
	sub := testing.AllocsPerRun(100, func() { NewBase(sim.NewEngine(1), tr, q) })
	if def-sub != 1 {
		t.Errorf("NewBase allocates %.0f objects with the default wheel and %.0f with WithQueue, want exactly one fewer", def, sub)
	}
}

func TestAlternateWheelBackends(t *testing.T) {
	for _, q := range []timerwheel.Queue{
		timerwheel.NewSortedList(), timerwheel.NewHeap(),
		timerwheel.NewHashedWheel(256),
	} {
		eng := sim.NewEngine(1)
		b := NewBase(eng, trace.NewBuffer(0), WithQueue(q))
		var fired int
		for i := 0; i < 10; i++ {
			tm := &Timer{}
			b.Init(tm, "kernel/x", 0, func() { fired++ })
			b.ModTimeout(tm, sim.Duration(i+1)*100*sim.Millisecond)
		}
		eng.Run(sim.Time(2 * sim.Second))
		if fired != 10 {
			t.Fatalf("%s: fired %d/10", q.Name(), fired)
		}
	}
}

func TestHRTimerNanosecondResolution(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := trace.NewBuffer(1024)
	hr := NewHighRes(eng, tr)
	var firedAt sim.Time
	tm := &HRTimer{}
	hr.Init(tm, "hrtimer/test", 0, func() { firedAt = eng.Now() })
	hr.Start(tm, 1500*sim.Microsecond)
	eng.Run(sim.Time(sim.Second))
	if firedAt != sim.Time(1500*sim.Microsecond) {
		t.Fatalf("fired at %v: hrtimers must not be jiffy-quantized", firedAt)
	}
	if tm.id&hrIDBit == 0 {
		t.Fatal("hrtimer ID not in the hrtimer space")
	}
}

func TestHRTimerCancelAndRestart(t *testing.T) {
	eng := sim.NewEngine(1)
	hr := NewHighRes(eng, trace.NewBuffer(1024))
	fired := 0
	tm := &HRTimer{}
	hr.Init(tm, "hrtimer/test", 0, func() { fired++ })
	hr.Start(tm, sim.Second)
	if !hr.Cancel(tm) {
		t.Fatal("cancel failed")
	}
	if hr.Cancel(tm) {
		t.Fatal("double cancel succeeded")
	}
	hr.Start(tm, sim.Second)
	hr.Start(tm, 2*sim.Second) // restart moves, does not duplicate
	eng.Run(sim.Time(5 * sim.Second))
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestTraceAttribution(t *testing.T) {
	eng, tr, b := newTestBase()
	tm := &Timer{PID: 0, UserFlagged: true, Deferrable: true}
	b.Init(tm, "syscall/select", 1234, func() {})
	tm.UserFlagged = true
	b.ModTimeout(tm, 10*sim.Millisecond)
	eng.Run(sim.Time(100 * sim.Millisecond))
	for _, r := range tr.Records() {
		if r.PID != 1234 {
			t.Fatalf("PID = %d", r.PID)
		}
		if tr.OriginName(r.Origin) != "syscall/select" {
			t.Fatalf("origin = %q", tr.OriginName(r.Origin))
		}
		if !r.IsUser() {
			t.Fatalf("record %v not flagged user", r.Op)
		}
		if r.Flags&trace.FlagDeferrable == 0 {
			t.Fatalf("record %v not flagged deferrable", r.Op)
		}
	}
}
