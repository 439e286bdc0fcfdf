package kernel

import (
	"testing"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

func newTestLinux() (*sim.Engine, *trace.Buffer, *Linux) {
	eng := sim.NewEngine(1)
	tr := trace.NewBuffer(1 << 20)
	return eng, tr, NewLinux(eng, tr)
}

func TestSelectTimeout(t *testing.T) {
	eng, tr, l := newTestLinux()
	p := l.NewProcess("xterm")
	var res SelectResult
	got := false
	p.Select(100*sim.Millisecond, func(r SelectResult) { res, got = r, true })
	eng.Run(sim.Time(sim.Second))
	if !got || !res.TimedOut {
		t.Fatalf("res = %+v got=%v", res, got)
	}
	// Trace: exact user value on the set record.
	var set *trace.Record
	for i, r := range tr.Records() {
		if r.Op == trace.OpSet && r.IsUser() {
			set = &tr.Records()[i]
		}
	}
	if set == nil {
		t.Fatal("no user set record")
	}
	if set.Timeout != int64(100*sim.Millisecond) {
		t.Fatalf("user value jittered: %d", set.Timeout)
	}
	if set.PID != p.PID {
		t.Fatalf("pid = %d", set.PID)
	}
	if tr.OriginName(set.Origin) != "xterm/select" {
		t.Fatalf("origin = %q", tr.OriginName(set.Origin))
	}
}

func TestSelectEarlyCompletionRemainingCountdown(t *testing.T) {
	// The Figure 4 idiom: select(600s) interrupted at 250s returns ~350s
	// remaining, quantized to jiffies.
	eng, _, l := newTestLinux()
	p := l.NewProcess("Xorg")
	var res SelectResult
	w := p.Select(600*sim.Second, func(r SelectResult) { res = r })
	eng.At(sim.Time(250*sim.Second), "fd-activity", w.Complete)
	eng.Run(sim.Time(300 * sim.Second))
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if res.Remaining != 350*sim.Second {
		t.Fatalf("remaining = %v, want 350s", res.Remaining)
	}
}

func TestSelectCompleteAfterTimeoutIsNoop(t *testing.T) {
	eng, _, l := newTestLinux()
	p := l.NewProcess("a")
	calls := 0
	w := p.Select(10*sim.Millisecond, func(SelectResult) { calls++ })
	eng.Run(sim.Time(sim.Second))
	w.Complete()
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if !w.Done() {
		t.Fatal("not done")
	}
}

func TestSelectTimerIdentityStablePerProcess(t *testing.T) {
	// Successive selects from one process reuse one timer identity —
	// the property the paper's Linux analysis leans on.
	eng, tr, l := newTestLinux()
	p := l.NewProcess("icewm")
	for i := 0; i < 3; i++ {
		p.Select(10*sim.Millisecond, func(SelectResult) {})
		eng.Run(eng.Now().Add(100 * sim.Millisecond))
	}
	ids := map[uint64]bool{}
	for _, r := range tr.Records() {
		if r.Op == trace.OpSet {
			ids[r.TimerID] = true
		}
	}
	if len(ids) != 1 {
		t.Fatalf("select used %d identities, want 1", len(ids))
	}
}

func TestPollSeparateFromSelect(t *testing.T) {
	eng, tr, l := newTestLinux()
	p := l.NewProcess("skype")
	p.Select(10*sim.Millisecond, func(SelectResult) {})
	p.Poll(10*sim.Millisecond, func(SelectResult) {})
	eng.Run(sim.Time(sim.Second))
	ids := map[uint64]string{}
	for _, r := range tr.Records() {
		if r.Op == trace.OpSet {
			ids[r.TimerID] = tr.OriginName(r.Origin)
		}
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestNanosleepHighRes(t *testing.T) {
	eng, _, l := newTestLinux()
	p := l.NewProcess("a")
	var at sim.Time
	p.Nanosleep(1500*sim.Microsecond, func() { at = eng.Now() })
	eng.Run(sim.Time(sim.Second))
	if at != sim.Time(1500*sim.Microsecond) {
		t.Fatalf("woke at %v: nanosleep is hrtimer-based, no jiffy rounding", at)
	}
}

func TestAlarm(t *testing.T) {
	eng, _, l := newTestLinux()
	p := l.NewProcess("cron")
	fired := false
	p.Alarm(2*sim.Second, func() { fired = true })
	// Re-arm before expiry: returns remaining, replaces.
	eng.At(sim.Time(sim.Second), "rearm", func() {
		rem := p.Alarm(5*sim.Second, func() { fired = true })
		if rem < 900*sim.Millisecond || rem > 1100*sim.Millisecond {
			t.Errorf("remaining = %v, want ≈1s", rem)
		}
	})
	eng.Run(sim.Time(4 * sim.Second))
	if fired {
		t.Fatal("original alarm fired despite re-arm")
	}
	eng.Run(sim.Time(10 * sim.Second))
	if !fired {
		t.Fatal("alarm never fired")
	}
	// alarm(0) cancels.
	p.Alarm(sim.Second, func() { t.Error("canceled alarm fired") })
	p.Alarm(0, nil)
	eng.Run(sim.Time(20 * sim.Second))
}

func TestPosixTimerPeriodic(t *testing.T) {
	eng, tr, l := newTestLinux()
	p := l.NewProcess("mplayer")
	fires := 0
	pt := p.TimerCreate("frame", func() { fires++ })
	pt.Settime(100*sim.Millisecond, 100*sim.Millisecond)
	eng.Run(sim.Time(1050 * sim.Millisecond))
	if fires < 9 || fires > 11 {
		t.Fatalf("fires = %d", fires)
	}
	pt.Settime(0, 0) // disarm
	n := fires
	eng.Run(sim.Time(2 * sim.Second))
	if fires != n {
		t.Fatal("fired after disarm")
	}
	pt.Delete()
	// Each periodic expiry logs a user set for the next interval.
	c := tr.Counters()
	if c.ByOp[trace.OpSet] < uint64(n) {
		t.Fatalf("sets = %d, fires = %d", c.ByOp[trace.OpSet], n)
	}
}

func TestPosixTimerSettimeAfterDeletePanics(t *testing.T) {
	_, _, l := newTestLinux()
	p := l.NewProcess("x")
	pt := p.TimerCreate("t", nil)
	pt.Delete()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	pt.Settime(sim.Second, 0)
}

func TestScheduleTimeoutKernelAttribution(t *testing.T) {
	eng, tr, l := newTestLinux()
	var timedOut bool
	l.ScheduleTimeout("ide/command-timeout", 30*sim.Second, func(to bool) { timedOut = to })
	eng.Run(sim.Time(31 * sim.Second))
	if !timedOut {
		t.Fatal("no timeout")
	}
	for _, r := range tr.Records() {
		if r.IsUser() {
			t.Fatalf("kernel timeout flagged user: %+v", r)
		}
	}
}

func TestScheduleTimeoutEarlyWake(t *testing.T) {
	eng, _, l := newTestLinux()
	var timedOut = true
	w := l.ScheduleTimeout("scsi/cmd", 30*sim.Second, func(to bool) { timedOut = to })
	eng.At(sim.Time(10*sim.Millisecond), "io-done", w.Complete)
	eng.Run(sim.Time(sim.Minute))
	if timedOut {
		t.Fatal("completed wait reported timeout")
	}
}

func TestUserRecordsCountedOnce(t *testing.T) {
	// One select = one set access (the syscall layer logs; the base is
	// quiet). This keeps the Table 1 user/kernel split honest.
	eng, tr, l := newTestLinux()
	p := l.NewProcess("a")
	p.Select(50*sim.Millisecond, func(SelectResult) {})
	eng.Run(sim.Time(sim.Second))
	c := tr.Counters()
	if c.ByOp[trace.OpSet] != 1 {
		t.Fatalf("set records = %d, want 1", c.ByOp[trace.OpSet])
	}
	if c.ByOp[trace.OpExpire] != 1 {
		t.Fatalf("expire records = %d, want 1", c.ByOp[trace.OpExpire])
	}
}

func TestPIDsAssignedSequentially(t *testing.T) {
	_, _, l := newTestLinux()
	a := l.NewProcess("a")
	b := l.NewProcess("b")
	if a.PID == b.PID || a.PID < 1000 {
		t.Fatalf("pids: %d %d", a.PID, b.PID)
	}
	if len(l.Processes()) != 2 {
		t.Fatal("process registry broken")
	}
}

func TestSelectExpiryOnJiffyBoundary(t *testing.T) {
	// Observed durations quantize to jiffies even though requested values
	// are exact — the Figure 8 hyperbola's cause on Linux.
	eng, tr, l := newTestLinux()
	p := l.NewProcess("a")
	p.Select(sim.Millisecond, func(SelectResult) {})
	eng.Run(sim.Time(sim.Second))
	var setT, expT sim.Time
	for _, r := range tr.Records() {
		switch r.Op {
		case trace.OpSet:
			setT = r.T
		case trace.OpExpire:
			expT = r.T
		}
	}
	elapsed := expT.Sub(setT)
	if elapsed < sim.Duration(jiffies.JiffyDuration) {
		t.Fatalf("1ms select delivered after %v, want ≥ 1 jiffy", elapsed)
	}
}

func TestPollZeroNonBlocking(t *testing.T) {
	// poll(0) returns inline, arms nothing, and still contributes a
	// zero-valued set to the trace (the Figure 6 Skype spike).
	eng, tr, l := newTestLinux()
	p := l.NewProcess("skype")
	ran := false
	w := p.Poll(0, func(r SelectResult) { ran = r.TimedOut })
	if !ran || !w.Done() {
		t.Fatal("poll(0) did not complete inline")
	}
	c := tr.Counters()
	if c.ByOp[trace.OpSet] != 1 || c.ByOp[trace.OpCancel] != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if tr.Records()[0].Timeout != 0 {
		t.Fatalf("timeout = %d", tr.Records()[0].Timeout)
	}
	eng.Run(sim.Time(sim.Second))
	if l.Base().ExpiredCount != 0 {
		t.Fatal("poll(0) armed a kernel timer")
	}
}

func TestEpollWaitSharesPollIdentity(t *testing.T) {
	eng, tr, l := newTestLinux()
	p := l.NewProcess("nginx")
	p.EpollWait(10*sim.Millisecond, func(SelectResult) {})
	eng.Run(sim.Time(sim.Second))
	p.Poll(10*sim.Millisecond, func(SelectResult) {})
	eng.Run(sim.Time(2 * sim.Second))
	ids := map[uint64]bool{}
	for _, r := range tr.Records() {
		if r.Op == trace.OpSet {
			ids[r.TimerID] = true
		}
	}
	if len(ids) != 1 {
		t.Fatalf("epoll_wait and poll used %d identities, want 1 (same kernel path)", len(ids))
	}
}

func TestThreadsIsolateSyscallTimers(t *testing.T) {
	eng, _, l := newTestLinux()
	p := l.NewProcess("firefox")
	t1, t2 := p.NewThread(), p.NewThread()
	got1, got2 := false, false
	t1.Poll(20*sim.Millisecond, func(SelectResult) { got1 = true })
	t2.Poll(40*sim.Millisecond, func(SelectResult) { got2 = true })
	eng.Run(sim.Time(sim.Second))
	if !got1 || !got2 {
		t.Fatalf("concurrent per-thread polls interfered: %v %v", got1, got2)
	}
}

func TestAlarmZeroReturnsRemaining(t *testing.T) {
	eng, _, l := newTestLinux()
	p := l.NewProcess("sh")
	p.Alarm(10*sim.Second, nil)
	eng.Run(sim.Time(4 * sim.Second))
	rem := p.Alarm(0, nil)
	if rem < 5900*sim.Millisecond || rem > 6100*sim.Millisecond {
		t.Fatalf("remaining = %v, want ≈6s", rem)
	}
	if p.Alarm(0, nil) != 0 {
		t.Fatal("second alarm(0) returned nonzero")
	}
}

func TestSelectNegativeTimeoutTreatedAsZero(t *testing.T) {
	_, tr, l := newTestLinux()
	p := l.NewProcess("a")
	ran := false
	p.Select(-5*sim.Second, func(SelectResult) { ran = true })
	if !ran {
		t.Fatal("negative timeout did not complete inline")
	}
	if tr.Records()[0].Timeout != 0 {
		t.Fatalf("recorded %d", tr.Records()[0].Timeout)
	}
}

// TestPendingStaleAcrossGenerations: fd activity scheduled against poll N
// that lands while the thread sits in poll N+1 must not complete N+1, and
// every handle's Done stays right as the thread's state is reused.
func TestPendingStaleAcrossGenerations(t *testing.T) {
	eng, tr, l := newTestLinux()
	th := l.NewProcess("firefox").NewThread()
	var results []SelectResult
	var second Pending
	first := th.Poll(20*sim.Millisecond, func(r SelectResult) {
		results = append(results, r)
		second = th.Poll(sim.Second, func(r SelectResult) { results = append(results, r) })
	})
	first.CompleteAfter(50*sim.Millisecond, "fd")
	eng.Run(sim.Time(60 * sim.Millisecond))
	if len(results) != 1 || !results[0].TimedOut {
		t.Fatalf("results = %+v, want poll 1 timed out and poll 2 still blocked", results)
	}
	if !first.Done() || second.Done() {
		t.Fatalf("Done: first=%v second=%v, want true false", first.Done(), second.Done())
	}
	first.Complete()
	if second.Done() {
		t.Fatal("Complete on poll 1's handle completed poll 2")
	}
	eng.Run(sim.Time(2 * sim.Second))
	if len(results) != 2 || !results[1].TimedOut {
		t.Fatalf("results = %+v, want poll 2 to time out on its own", results)
	}
	if !first.Done() || !second.Done() {
		t.Fatal("a returned call's handle reports not done")
	}
	if c := tr.Counters(); c.ByOp[trace.OpCancel] != 0 {
		t.Fatalf("stale completions logged %d cancels, want 0", c.ByOp[trace.OpCancel])
	}
	var zero Pending
	zero.Complete()
	zero.CompleteAfter(sim.Millisecond, "fd")
	if !zero.Done() || eng.Pending() != 1 { // only the jiffies tick is queued
		t.Fatalf("zero Pending: done=%v queued=%d", zero.Done(), eng.Pending())
	}
}

// TestBlockWhileBlockedPanics: a thread is in at most one select at a time;
// a second select before the first returns is a programming error, not a
// silently orphaned call.
func TestBlockWhileBlockedPanics(t *testing.T) {
	_, _, l := newTestLinux()
	p := l.NewProcess("a")
	p.Select(sim.Second, func(SelectResult) {})
	defer func() {
		if r := recover(); r != "kernel: thread already blocked" {
			t.Fatalf("recovered %v, want the already-blocked panic", r)
		}
	}()
	p.Select(sim.Second, func(SelectResult) {})
}

// TestSelectZeroAllocSteadyState: once warm, a select completed early by
// scheduled fd activity and a poll that expires allocate nothing.
// Run without -race (scripts/check.sh does).
func TestSelectZeroAllocSteadyState(t *testing.T) {
	eng, _, l := newTestLinux()
	th := l.NewProcess("Xorg").NewThread()
	returned := 0
	cb := func(SelectResult) { returned++ }
	cycle := func() {
		th.Select(50*sim.Millisecond, cb).CompleteAfter(10*sim.Millisecond, "fd")
		eng.Run(eng.Now().Add(20 * sim.Millisecond))
		th.Poll(10*sim.Millisecond, cb)
		eng.Run(eng.Now().Add(30 * sim.Millisecond))
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("select/poll cycle allocates %.2f objects, want 0", allocs)
	}
	if want := 2 * (10 + 1001); returned != want {
		t.Fatalf("%d calls returned, want %d", returned, want)
	}
}
