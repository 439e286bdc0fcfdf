package ktimer

import (
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

func newTestKernel() (*sim.Engine, *trace.Buffer, *Kernel) {
	eng := sim.NewEngine(1)
	tr := trace.NewBuffer(1 << 20)
	return eng, tr, NewKernel(eng, tr)
}

func TestKTimerFiresAtClockInterrupt(t *testing.T) {
	eng, tr, k := newTestKernel()
	var firedAt sim.Time
	kt := k.NewTimer("driver/test", 0, false, nil)
	kt.dpc = func() { firedAt = eng.Now() }
	k.SetTimerIn(kt, 20*sim.Millisecond, 0)
	eng.Run(sim.Time(sim.Second))
	// 20 ms rounds up to the 2nd clock interrupt: 31.25 ms.
	want := sim.Time(2 * ClockInterval)
	if firedAt != want {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
	var ops []trace.Op
	for _, r := range tr.Records() {
		ops = append(ops, r.Op)
	}
	if len(ops) != 2 || ops[0] != trace.OpSet || ops[1] != trace.OpExpire {
		t.Fatalf("ops = %v", ops)
	}
	if got := tr.Records()[0].Timeout; got != int64(20*sim.Millisecond) {
		t.Fatalf("recorded timeout = %d", got)
	}
}

func TestKTimerSubMillisecondDeliveredLate(t *testing.T) {
	// The paper's Vista Firefox trace shows sub-millisecond timers
	// "delivered at essentially random times": delivery is quantized to the
	// 15.6 ms clock, so a 1 ms timer is >1500 % late.
	eng, _, k := newTestKernel()
	var firedAt sim.Time
	kt := k.NewTimer("firefox/short", 10, true, nil)
	kt.dpc = func() { firedAt = eng.Now() }
	k.SetTimerIn(kt, sim.Millisecond, 0)
	eng.Run(sim.Time(sim.Second))
	if firedAt != sim.Time(ClockInterval) {
		t.Fatalf("fired at %v, want %v", firedAt, ClockInterval)
	}
}

func TestKTimerCancel(t *testing.T) {
	eng, tr, k := newTestKernel()
	fired := false
	kt := k.NewTimer("driver/test", 0, false, nil)
	kt.dpc = func() { fired = true }
	k.SetTimerIn(kt, 100*sim.Millisecond, 0)
	if !k.CancelTimer(kt) {
		t.Fatal("cancel failed")
	}
	if k.CancelTimer(kt) {
		t.Fatal("double cancel reported active")
	}
	eng.Run(sim.Time(sim.Second))
	if fired {
		t.Fatal("canceled timer fired")
	}
	if got := tr.Counters().ByOp[trace.OpCancel]; got != 2 {
		t.Fatalf("cancel accesses = %d", got)
	}
}

func TestKTimerPeriodicSetOnceExpiresMany(t *testing.T) {
	eng, tr, k := newTestKernel()
	fires := 0
	kt := k.NewTimer("system/periodic", 4, false, nil)
	kt.dpc = func() { fires++ }
	k.SetTimerIn(kt, 100*sim.Millisecond, 100*sim.Millisecond)
	eng.Run(sim.Time(sim.Second))
	if fires < 8 || fires > 10 {
		t.Fatalf("fires = %d, want ≈9", fires)
	}
	c := tr.Counters()
	if c.ByOp[trace.OpSet] != 1 {
		t.Fatalf("sets = %d, want 1 (periodic re-arm is internal)", c.ByOp[trace.OpSet])
	}
	if int(c.ByOp[trace.OpExpire]) != fires {
		t.Fatalf("expiries = %d, fires = %d", c.ByOp[trace.OpExpire], fires)
	}
}

func TestFreshIdentityPerAllocation(t *testing.T) {
	_, _, k := newTestKernel()
	a := k.NewTimer("x", 0, false, nil)
	b := k.NewTimer("x", 0, false, nil)
	if a.ID() == b.ID() {
		t.Fatal("dynamically allocated KTIMERs must have fresh identities")
	}
}

func TestWaitSatisfied(t *testing.T) {
	eng, tr, k := newTestKernel()
	obj := NewEvent()
	th := k.NewThread(100, "app.exe")
	var result WaitResult = -1
	th.WaitFor(5*sim.Second, func(r WaitResult) { result = r }, obj)
	eng.At(sim.Time(sim.Second), "signal", func() { obj.signal(k) })
	eng.Run(sim.Time(10 * sim.Second))
	if result != WaitSatisfied {
		t.Fatalf("result = %v", result)
	}
	// Trace: OpWait then OpCancel with FlagSatisfied.
	var seen []trace.Op
	for _, r := range tr.Records() {
		seen = append(seen, r.Op)
		if r.Op == trace.OpCancel && r.Flags&trace.FlagSatisfied == 0 {
			t.Fatal("satisfied wait cancel not flagged")
		}
	}
	if len(seen) != 2 || seen[0] != trace.OpWait || seen[1] != trace.OpCancel {
		t.Fatalf("ops = %v", seen)
	}
}

func TestWaitTimeout(t *testing.T) {
	eng, tr, k := newTestKernel()
	obj := NewEvent()
	th := k.NewThread(100, "app.exe")
	var result WaitResult = -1
	var at sim.Time
	th.WaitFor(sim.Second, func(r WaitResult) { result, at = r, eng.Now() }, obj)
	eng.Run(sim.Time(10 * sim.Second))
	if result != WaitTimeout {
		t.Fatalf("result = %v", result)
	}
	if at < sim.Time(sim.Second) || at > sim.Time(sim.Second+ClockInterval) {
		t.Fatalf("timed out at %v", at)
	}
	c := tr.Counters()
	if c.ByOp[trace.OpWait] != 1 || c.ByOp[trace.OpExpire] != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestWaitOnSignaledObjectImmediate(t *testing.T) {
	eng, tr, k := newTestKernel()
	obj := NewEvent()
	obj.signal(k)
	th := k.NewThread(1, "a")
	done := false
	th.WaitFor(sim.Second, func(r WaitResult) { done = r == WaitSatisfied }, obj)
	if !done {
		t.Fatal("wait on signaled object did not complete inline")
	}
	if tr.Counters().Total != 0 {
		t.Fatal("inline completion should not touch the timer subsystem")
	}
	_ = eng
}

func TestInfiniteWaitNoTimer(t *testing.T) {
	eng, tr, k := newTestKernel()
	obj := NewEvent()
	th := k.NewThread(1, "a")
	ok := false
	th.WaitFor(Forever, func(r WaitResult) { ok = r == WaitSatisfied }, obj)
	if tr.Counters().ByOp[trace.OpWait] != 0 {
		t.Fatal("infinite wait armed a timer")
	}
	eng.At(sim.Time(sim.Second), "signal", func() { obj.signal(k) })
	eng.Run(sim.Time(2 * sim.Second))
	if !ok {
		t.Fatal("wait not satisfied")
	}
}

func TestWaitAnyMultipleObjects(t *testing.T) {
	eng, _, k := newTestKernel()
	a, b := NewEvent(), NewEvent()
	th := k.NewThread(1, "a")
	n := 0
	th.WaitFor(10*sim.Second, func(WaitResult) { n++ }, a, b)
	eng.At(sim.Time(sim.Second), "sig-b", func() { b.signal(k) })
	eng.At(sim.Time(2*sim.Second), "sig-a", func() { a.signal(k) })
	eng.Run(sim.Time(5 * sim.Second))
	if n != 1 {
		t.Fatalf("callback ran %d times", n)
	}
}

func TestThreadpoolCoalescing(t *testing.T) {
	// Three timers due within each other's windows must share one kernel
	// expiry.
	eng, _, k := newTestKernel()
	pool := k.NewPool(50, "svchost.exe")
	fired := 0
	for i := 0; i < 3; i++ {
		tp := pool.NewTimer("svchost.exe/task", func() { fired++ })
		tp.Set(sim.Duration(100+10*i)*sim.Millisecond, 0, 200*sim.Millisecond)
	}
	before := k.ExpiredCount
	eng.Run(sim.Time(sim.Second))
	if fired != 3 {
		t.Fatalf("fired = %d", fired)
	}
	if got := k.ExpiredCount - before; got != 1 {
		t.Fatalf("kernel expiries = %d, want 1 (coalesced)", got)
	}
}

func TestThreadpoolPeriodicAndCancel(t *testing.T) {
	eng, _, k := newTestKernel()
	pool := k.NewPool(50, "svchost.exe")
	fires := 0
	tp := pool.NewTimer("svchost.exe/poll", func() { fires++ })
	tp.Set(100*sim.Millisecond, 100*sim.Millisecond, 0)
	eng.Run(sim.Time(sim.Second))
	if fires < 8 {
		t.Fatalf("fires = %d", fires)
	}
	if !tp.Cancel() {
		t.Fatal("cancel failed")
	}
	if tp.Cancel() {
		t.Fatal("double cancel succeeded")
	}
	n := fires
	eng.Run(sim.Time(2 * sim.Second))
	if fires != n {
		t.Fatal("fired after cancel")
	}
	if pool.Len() != 0 {
		t.Fatalf("pool len = %d", pool.Len())
	}
}

func TestThreadpoolNoWindowFiresPromptly(t *testing.T) {
	eng, _, k := newTestKernel()
	pool := k.NewPool(50, "x")
	var at sim.Time
	tp := pool.NewTimer("x/t", func() { at = eng.Now() })
	tp.Set(20*sim.Millisecond, 0, 0)
	eng.Run(sim.Time(sim.Second))
	if at != sim.Time(2*ClockInterval) {
		t.Fatalf("fired at %v", at)
	}
}

func TestWin32TimerPeriodicWMTimer(t *testing.T) {
	eng, _, k := newTestKernel()
	q := k.NewMessageQueue(200, "outlook.exe")
	fires := 0
	q.SetTimer(1, 100*sim.Millisecond, func() { fires++ })
	eng.Run(sim.Time(sim.Second))
	if fires < 7 || fires > 10 {
		t.Fatalf("fires = %d", fires)
	}
	if !q.KillTimer(1) {
		t.Fatal("KillTimer failed")
	}
	if q.KillTimer(1) {
		t.Fatal("double kill succeeded")
	}
	n := fires
	eng.Run(sim.Time(2 * sim.Second))
	if fires != n {
		t.Fatal("fired after KillTimer")
	}
}

func TestWin32TimerIDReplacement(t *testing.T) {
	eng, _, k := newTestKernel()
	q := k.NewMessageQueue(200, "app.exe")
	a, b := 0, 0
	q.SetTimer(7, 100*sim.Millisecond, func() { a++ })
	q.SetTimer(7, 100*sim.Millisecond, func() { b++ }) // replaces
	eng.Run(sim.Time(sim.Second))
	if a != 0 {
		t.Fatalf("replaced timer fired %d times", a)
	}
	if b == 0 {
		t.Fatal("replacement never fired")
	}
}

func TestAfdSelectTimeoutAndCancel(t *testing.T) {
	eng, tr, k := newTestKernel()
	timedOut := false
	k.AfdSelect(10, "iexplore.exe", 50*sim.Millisecond, func(to bool) { timedOut = to })
	eng.Run(sim.Time(sim.Second))
	if !timedOut {
		t.Fatal("select did not time out")
	}
	// Early completion path.
	got := -1
	cancel := k.AfdSelect(10, "iexplore.exe", 5*sim.Second, func(to bool) {
		if to {
			got = 1
		} else {
			got = 0
		}
	})
	eng.At(eng.Now().Add(10*sim.Millisecond), "activity", cancel)
	eng.Run(eng.Now().Add(10 * sim.Second))
	if got != 0 {
		t.Fatalf("got = %d, want completion without timeout", got)
	}
	// Each select allocated a fresh KTIMER.
	ids := map[uint64]bool{}
	for _, r := range tr.Records() {
		if r.Op == trace.OpSet {
			ids[r.TimerID] = true
		}
	}
	if len(ids) < 2 {
		t.Fatalf("selects shared a timer: %v", ids)
	}
}

func TestNtSetTimerAPC(t *testing.T) {
	eng, _, k := newTestKernel()
	ran := false
	kt := k.NtSetTimer(10, "app/nt-timer", 50*sim.Millisecond, func() { ran = true })
	if !k.NtCancelTimer(kt) {
		t.Fatal("cancel failed")
	}
	eng.Run(sim.Time(sim.Second))
	if ran {
		t.Fatal("canceled NT timer delivered its APC")
	}
}

// TestStaleWaitDPCExpiresNoLaterWait: a wait whose timer expires in the
// same clock interrupt that signals its object is satisfied, and its
// continuation waits again before the interrupt drains the timer's DPC.
// That DPC belongs to the finished wait and must expire neither a finite
// nor a Forever re-wait.
func TestStaleWaitDPCExpiresNoLaterWait(t *testing.T) {
	for _, rewait := range []sim.Duration{sim.Second, Forever} {
		eng, _, k := newTestKernel()
		th := k.NewThread(1, "a")
		kt := k.NewTimer("driver/signal", 0, false, nil)
		var results []WaitResult
		var at []sim.Time
		th.WaitFor(20*sim.Millisecond, func(r WaitResult) {
			results, at = append(results, r), append(at, eng.Now())
			th.WaitFor(rewait, func(r WaitResult) {
				results, at = append(results, r), append(at, eng.Now())
			}, NewEvent())
		}, &kt.Object)
		// Due at the same clock interrupt as the wait timer, queued behind it.
		k.SetTimerIn(kt, 20*sim.Millisecond, 0)
		eng.Run(sim.Time(500 * sim.Millisecond))
		if len(results) != 1 || results[0] != WaitSatisfied {
			t.Fatalf("re-wait %v: results %v at %v, want one satisfied wait and the re-wait still blocked", rewait, results, at)
		}
		if rewait == Forever {
			continue
		}
		eng.Run(sim.Time(2 * sim.Second))
		if len(results) != 2 || results[1] != WaitTimeout || at[1].Sub(at[0]) < sim.Second {
			t.Fatalf("results %v at %v, want the re-wait to time out after its own second", results, at)
		}
	}
}

// TestWaitForZeroAlloc: once warm, a wait satisfied by a signal and a wait
// that times out allocate nothing. Run without -race (scripts/check.sh does).
func TestWaitForZeroAlloc(t *testing.T) {
	eng, _, k := newTestKernel()
	th := k.NewThread(1, "svc.exe")
	obj := NewEvent()
	returned := 0
	cb := func(WaitResult) { returned++ }
	signal := func() { k.Signal(obj) }
	cycle := func() {
		obj.Reset()
		th.WaitFor(sim.Second, cb, obj)
		eng.After(10*sim.Millisecond, "signal", signal)
		eng.Run(eng.Now().Add(20 * sim.Millisecond))
		obj.Reset()
		th.WaitFor(20*sim.Millisecond, cb, obj)
		eng.Run(eng.Now().Add(50 * sim.Millisecond))
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("wait cycle allocates %.2f objects, want 0", allocs)
	}
	if want := 2 * (10 + 1001); returned != want {
		t.Fatalf("%d waits returned, want %d", returned, want)
	}
}
