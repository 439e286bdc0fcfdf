package ktimer

import (
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

func TestSetTimerAbsolute(t *testing.T) {
	eng, tr, k := newTestKernel()
	var at sim.Time
	kt := k.NewTimer("driver/abs", 0, false, nil)
	kt.SetDPC(func() { at = eng.Now() })
	k.SetTimer(kt, sim.Time(100*sim.Millisecond), 0, true)
	eng.Run(sim.Time(sim.Second))
	want := sim.Time(7 * ClockInterval) // first interrupt ≥ 100 ms = 109.375 ms
	if at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for _, r := range tr.Records() {
		if r.Op == trace.OpSet && r.Flags&trace.FlagAbsolute == 0 {
			t.Fatal("absolute set not flagged")
		}
	}
}

func TestResetPendingTimerMoves(t *testing.T) {
	eng, tr, k := newTestKernel()
	fires := 0
	kt := k.NewTimer("driver/x", 0, false, nil)
	kt.SetDPC(func() { fires++ })
	k.SetTimerIn(kt, 50*sim.Millisecond, 0)
	k.SetTimerIn(kt, 500*sim.Millisecond, 0) // move, not duplicate
	eng.Run(sim.Time(sim.Second))
	if fires != 1 {
		t.Fatalf("fires = %d", fires)
	}
	if got := tr.Counters().ByOp[trace.OpSet]; got != 2 {
		t.Fatalf("sets = %d", got)
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	_, _, k := newTestKernel()
	th := k.NewThread(1, "a")
	obj := NewEvent()
	th.WaitFor(sim.Second, func(WaitResult) {}, obj)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double wait")
		}
	}()
	th.WaitFor(sim.Second, func(WaitResult) {}, obj)
}

func TestZeroWaitCompletesInline(t *testing.T) {
	_, tr, k := newTestKernel()
	th := k.NewThread(1, "a")
	got := false
	th.WaitFor(0, func(r WaitResult) { got = r == WaitTimeout })
	if !got {
		t.Fatal("zero wait did not complete inline")
	}
	c := tr.Counters()
	if c.ByOp[trace.OpWait] != 1 || c.ByOp[trace.OpExpire] != 1 {
		t.Fatalf("counters = %+v", c)
	}
	// The thread can immediately wait again: the zero wait left no state.
	th.WaitFor(0, func(WaitResult) {})
}

func TestMessageQueueCoalescesWMTimer(t *testing.T) {
	eng, _, k := newTestKernel()
	q := k.NewMessageQueue(1, "app.exe")
	// A dispatch loop stalled longer than the timer period: expiries must
	// collapse into pending messages rather than queueing up.
	q.DispatchLatency = 200 * sim.Millisecond
	fires := 0
	q.SetTimer(1, 20*sim.Millisecond, func() { fires++ })
	eng.Run(sim.Time(2 * sim.Second))
	if q.Coalesced == 0 {
		t.Fatal("no WM_TIMER coalescing under a slow dispatch loop")
	}
	if fires == 0 {
		t.Fatal("nothing dispatched")
	}
	if uint64(fires) != q.Dispatched {
		t.Fatalf("fires=%d dispatched=%d", fires, q.Dispatched)
	}
}

func TestThreadpoolCancelAllDisarmsKernelTimer(t *testing.T) {
	eng, _, k := newTestKernel()
	pool := k.NewPool(1, "svc")
	tps := make([]*TPTimer, 3)
	for i := range tps {
		tps[i] = pool.NewTimer("svc/t", func() {})
		tps[i].Set(sim.Second, 0, 0)
	}
	for _, tp := range tps {
		tp.Cancel()
	}
	before := k.ExpiredCount
	eng.Run(sim.Time(5 * sim.Second))
	if k.ExpiredCount != before {
		t.Fatal("kernel timer fired after all threadpool timers were canceled")
	}
}

func TestThreadpoolResetPendingMoves(t *testing.T) {
	eng, _, k := newTestKernel()
	pool := k.NewPool(1, "svc")
	var at sim.Time
	tp := pool.NewTimer("svc/t", func() { at = eng.Now() })
	tp.Set(100*sim.Millisecond, 0, 0)
	tp.Set(sim.Second, 0, 0)
	eng.Run(sim.Time(5 * sim.Second))
	if at < sim.Time(sim.Second) {
		t.Fatalf("fired at %v despite re-set", at)
	}
	if pool.Len() != 0 {
		t.Fatalf("pool len = %d", pool.Len())
	}
}

func TestSignalBeforeWaitCompletesNextWaitInline(t *testing.T) {
	eng, _, k := newTestKernel()
	obj := NewEvent()
	k.Signal(obj)
	th := k.NewThread(1, "a")
	n := 0
	th.WaitFor(sim.Second, func(WaitResult) { n++ }, obj)
	if n != 1 {
		t.Fatal("signaled object did not satisfy immediately")
	}
	obj.Reset()
	th.WaitFor(50*sim.Millisecond, func(WaitResult) { n++ }, obj)
	eng.Run(sim.Time(sim.Second))
	if n != 2 {
		t.Fatalf("n = %d", n)
	}
}

func TestClockInterruptCadence(t *testing.T) {
	eng, _, k := newTestKernel()
	eng.Run(sim.Time(sim.Second))
	// 64 interrupts per second at 15.625 ms.
	if k.ClockInterrupts < 63 || k.ClockInterrupts > 65 {
		t.Fatalf("interrupts = %d", k.ClockInterrupts)
	}
}

func TestDynamicTickSkipsIdleInterrupts(t *testing.T) {
	run := func(dynamic bool) uint64 {
		eng := sim.NewEngine(1)
		k := NewKernel(eng, trace.NewBuffer(0), WithDynamicTick(dynamic))
		fires := 0
		kt := k.NewTimer("driver/x", 0, false, nil)
		kt.SetDPC(func() { fires++ })
		k.SetTimerIn(kt, 5*sim.Second, 0)
		eng.Run(sim.Time(30 * sim.Second))
		if fires != 1 {
			t.Fatalf("fires = %d", fires)
		}
		return k.ClockInterrupts
	}
	periodic := run(false)
	dynamic := run(true)
	if periodic < 30*64-5 {
		t.Fatalf("periodic interrupts = %d", periodic)
	}
	if dynamic > 3 {
		t.Fatalf("dynamic interrupts = %d, want ≈1", dynamic)
	}
}

func TestDynamicTickFiresOnTime(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, trace.NewBuffer(0), WithDynamicTick(true))
	var at sim.Time
	kt := k.NewTimer("driver/x", 0, false, nil)
	kt.SetDPC(func() { at = eng.Now() })
	k.SetTimerIn(kt, 20*sim.Millisecond, 0)
	eng.Run(sim.Time(sim.Second))
	if at != sim.Time(2*ClockInterval) {
		t.Fatalf("fired at %v", at)
	}
	// A later, nearer timer pulls the interrupt forward.
	var at2 sim.Time
	far := k.NewTimer("driver/far", 0, false, nil)
	far.SetDPC(func() {})
	k.SetTimerIn(far, 10*sim.Second, 0)
	near := k.NewTimer("driver/near", 0, false, nil)
	near.SetDPC(func() { at2 = eng.Now() })
	k.SetTimerIn(near, 50*sim.Millisecond, 0)
	eng.Run(eng.Now().Add(sim.Second))
	if at2 == 0 || at2 > sim.Time(sim.Second)+sim.Time(100*sim.Millisecond) {
		t.Fatalf("near timer at %v", at2)
	}
}

func TestDynamicTickPeriodicTimer(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, trace.NewBuffer(0), WithDynamicTick(true))
	fires := 0
	kt := k.NewTimer("driver/p", 0, false, nil)
	kt.SetDPC(func() { fires++ })
	k.SetTimerIn(kt, 100*sim.Millisecond, 100*sim.Millisecond)
	eng.Run(sim.Time(sim.Second))
	if fires < 8 {
		t.Fatalf("fires = %d: periodic re-arm lost under dynamic tick", fires)
	}
}

// TestKTimerAgainstReferenceModel drives the NT timer machinery with random
// set/cancel operations and checks every delivery against a naive model:
// a timer fires at the first clock interrupt at or after its due time,
// unless canceled or re-set first.
func TestKTimerAgainstReferenceModel(t *testing.T) {
	eng := sim.NewEngine(17)
	k := NewKernel(eng, trace.NewBuffer(0))
	rng := eng.Rand()

	type state struct {
		kt  *KTimer
		due sim.Time // 0 when idle
	}
	timers := make([]*state, 30)
	for i := range timers {
		st := &state{}
		st.kt = k.NewTimer("fuzz", 0, false, nil)
		st.kt.SetDPC(func() {
			now := eng.Now()
			if st.due == 0 {
				t.Error("fired while idle")
				return
			}
			if now < st.due {
				t.Errorf("fired at %v, due %v (early)", now, st.due)
			}
			// Delivery at the first interrupt >= due: lateness < one
			// clock interval past that interrupt.
			firstTick := tickToTime(timeToTick(st.due))
			if now != firstTick {
				t.Errorf("fired at %v, want interrupt %v for due %v", now, firstTick, st.due)
			}
			st.due = 0
		})
		timers[i] = st
	}
	var step func()
	step = func() {
		st := timers[rng.Intn(len(timers))]
		switch rng.Intn(3) {
		case 0, 1:
			d := sim.Duration(rng.Intn(int(2*sim.Second))) + sim.Millisecond
			st.due = eng.Now().Add(d)
			k.SetTimerIn(st.kt, d, 0)
		case 2:
			if k.CancelTimer(st.kt) {
				st.due = 0
			}
		}
		if eng.Now() < sim.Time(20*sim.Second) {
			eng.After(sim.Duration(rng.Intn(int(50*sim.Millisecond)))+1, "fuzz", step)
		}
	}
	eng.After(0, "fuzz", step)
	eng.Run(sim.Time(30 * sim.Second))
	for i, st := range timers {
		if st.due != 0 && st.due < eng.Now().Add(-sim.Second) {
			t.Errorf("timer %d lost: due %v, now %v", i, st.due, eng.Now())
		}
	}
}

// TestRenewTimerIsAFreshIdentity pins RenewTimer against NewTimer: a
// renewed object takes the next ID, interns its new origin, keeps its DPC
// and fires as the fresh timer would; renewing a pending timer panics.
func TestRenewTimerIsAFreshIdentity(t *testing.T) {
	eng, tr, k := newTestKernel()
	fires := 0
	kt := k.NewTimer("tcp/retransmit", 0, false, func() { fires++ })
	k.SetTimerIn(kt, 20*sim.Millisecond, 0)
	eng.Run(sim.Time(100 * sim.Millisecond))
	first := kt.ID()

	k.RenewTimer(kt, "tcp/delack", 7, true)
	if fresh := k.NewTimer("x", 0, false, nil); kt.ID() != first+1 || fresh.ID() != first+2 {
		t.Fatalf("renewed ID %d, next fresh ID %d; want %d, %d", kt.ID(), fresh.ID(), first+1, first+2)
	}
	k.SetTimerIn(kt, 20*sim.Millisecond, 0)
	eng.Run(sim.Time(200 * sim.Millisecond))
	if fires != 2 {
		t.Fatalf("DPC ran %d times, want 2 (kept across the renewal)", fires)
	}
	recs := tr.Records()
	last := recs[len(recs)-1]
	if last.TimerID != kt.ID() || tr.OriginName(last.Origin) != "tcp/delack" || last.PID != 7 || last.Flags&trace.FlagUser == 0 {
		t.Fatalf("renewed timer's record %+v (origin %q)", last, tr.OriginName(last.Origin))
	}

	k.SetTimerIn(kt, sim.Second, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("RenewTimer on a pending timer did not panic")
		}
	}()
	k.RenewTimer(kt, "tcp/delack", 0, false)
}
