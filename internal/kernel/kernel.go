// Package kernel provides the simulated operating-system glue for the Linux
// personality: processes, the timer-relevant syscall layer (select, poll,
// nanosleep, alarm, the POSIX timer API), and the rules by which user-space
// timeout values reach the kernel timer subsystem.
//
// Two details from Section 3.1 of the paper are load-bearing here:
//
//  1. user-space timeout values are recorded at the system-call boundary,
//     where the caller-supplied relative value is visible exactly (no
//     jitter), and
//  2. when select/poll return early due to file-descriptor activity, Linux
//     writes back the *remaining* time, and event-loop programs (the X
//     server, icewm) immediately re-issue select with that remainder —
//     producing the countdown pattern of Figure 4 that the analysis must
//     detect and filter.
//
// All blocking syscalls take continuation callbacks: the simulation is
// event-driven, so "the process blocks" means "the continuation runs later".
package kernel

import (
	"fmt"
	"math/rand"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Linux bundles the simulated Linux system: engine, tracer, the standard
// timer base and the hrtimer facility.
type Linux struct {
	eng     *sim.Engine
	tr      trace.Sink
	base    *jiffies.Base
	hr      *jiffies.HighRes
	nextPID int32
	procs   []*Process

	// freeWakes recycles Pending.CompleteAfter nodes.
	freeWakes *wake
}

// NewLinux boots a simulated Linux system. Base options (dynticks, wheel
// choice) pass through to the jiffies base.
func NewLinux(eng *sim.Engine, tr trace.Sink, opts ...jiffies.Option) *Linux {
	return &Linux{
		eng:  eng,
		tr:   tr,
		base: jiffies.NewBase(eng, tr, opts...),
		hr:   jiffies.NewHighRes(eng, tr),
	}
}

// Engine returns the simulation engine.
func (l *Linux) Engine() *sim.Engine { return l.eng }

// Trace returns the trace buffer.
func (l *Linux) Trace() trace.Sink { return l.tr }

// Base returns the standard timer base (for kernel subsystems).
func (l *Linux) Base() *jiffies.Base { return l.base }

// HighRes returns the hrtimer facility.
func (l *Linux) HighRes() *jiffies.HighRes { return l.hr }

// Now returns current virtual time.
func (l *Linux) Now() sim.Time { return l.eng.Now() }

// Rand returns the deterministic random source.
func (l *Linux) Rand() *rand.Rand { return l.eng.Rand() }

// KernelTimer allocates and initializes a kernel-internal timer with the
// given origin label, the idiom kernel subsystems use (statically allocated
// struct + init_timer).
func (l *Linux) KernelTimer(origin string, fn func()) *jiffies.Timer {
	t := &jiffies.Timer{}
	l.base.Init(t, origin, 0, fn)
	return t
}

// Process is a simulated user process.
type Process struct {
	l *Linux
	// PID is the process identifier (assigned sequentially from 1000, like
	// a freshly booted desktop).
	PID         int32
	alarmOrigin uint32
	// Name is the executable name used in origins ("Xorg", "firefox-bin").
	Name string

	// main is the process's main thread; its select/poll timers model the
	// on-stack timer structures of the respective syscall paths: one
	// stable identity per thread per syscall, which is what lets the
	// analysis correlate the X server's successive select timeouts
	// (Figure 4). Its timers' origins label every other thread's too.
	main Thread

	alarmTimer jiffies.Timer
}

// Thread is one thread of a process: it owns the per-thread on-stack timer
// structures used by blocking syscalls, so concurrent select/poll loops in
// one process (Firefox's event-loop threads) do not share timer identities.
// A thread is in at most one select and one poll at a time, so the state of
// each call lives in the thread itself and blocking allocates nothing.
type Thread struct {
	sel, poll blocker
}

// blocker is one blocking-syscall path of a thread (select or poll): the
// syscall's on-stack timer plus the state of the call in progress. gen
// counts calls; a Pending handle names the call it was issued for, so a
// completion aimed at an earlier call is recognised and dropped.
type blocker struct {
	p        *Process
	timer    jiffies.Timer
	origin   uint32
	gen      uint64
	done     bool // the call of generation gen has returned (or none was made)
	deadline sim.Time
	cb       func(SelectResult)
}

// NewProcess registers a process.
func (l *Linux) NewProcess(name string) *Process {
	l.nextPID++
	p := &Process{l: l, PID: 999 + l.nextPID, Name: name}
	// The process's three labels share one allocation.
	labels := name + "/select" + name + "/poll" + name + "/alarm"
	sel, poll := len(name)+len("/select"), 2*len(name)+len("/select/poll")
	alarm := labels[poll:]
	p.initThread(&p.main, labels[:sel], labels[sel:poll])
	p.initQuiet(&p.alarmTimer, alarm)
	p.alarmOrigin = l.tr.Origin(alarm)
	l.procs = append(l.procs, p)
	return p
}

// NewThread adds a thread to the process. Origins stay per call site
// (process + syscall), as the paper's stack-based attribution groups them,
// but each thread's syscall timers have their own identity.
func (p *Process) NewThread() *Thread {
	t := &Thread{}
	p.initThread(t, p.main.sel.timer.Origin, p.main.poll.timer.Origin)
	return t
}

// initThread initializes t's select and poll paths.
func (p *Process) initThread(t *Thread, selectOrigin, pollOrigin string) {
	t.sel.init(p, selectOrigin)
	t.poll.init(p, pollOrigin)
}

// init initializes the path's timer and binds its expiry callback once.
func (b *blocker) init(p *Process, origin string) {
	b.p = p
	b.done = true
	b.timer.Quiet, b.timer.UserFlagged = true, true
	p.l.base.Init(&b.timer, origin, p.PID, b.expire)
	b.origin = p.l.tr.Origin(origin)
}

// Processes returns all registered processes.
func (l *Linux) Processes() []*Process { return l.procs }

func (p *Process) quietTimer(origin string) *jiffies.Timer {
	t := &jiffies.Timer{}
	p.initQuiet(t, origin)
	return t
}

// initQuiet initializes t as one of the process's user timers that the
// syscall paths trace themselves.
func (p *Process) initQuiet(t *jiffies.Timer, origin string) {
	t.Quiet, t.UserFlagged = true, true
	p.l.base.Init(t, origin, p.PID, nil)
}

// SelectResult is what a select/poll continuation receives.
type SelectResult struct {
	// TimedOut is true when the timeout expired with no fd activity.
	TimedOut bool
	// Remaining is the unconsumed timeout Linux writes back into the
	// timeval on early return; zero when TimedOut.
	Remaining sim.Duration
}

// Pending is a handle to one blocking syscall: the workload completes it
// early by calling Complete (file-descriptor activity, signal delivery). It
// is a small value (copy freely) and stale-safe like sim.Event: once the
// call returns the handle goes stale, Done reports true forever, and
// Complete is a no-op even after the thread has blocked again. The zero
// Pending, returned by zero-timeout calls, is stale from the start.
type Pending struct {
	b   *blocker
	gen uint64
}

// Complete finishes the syscall early (fd became ready). Calling it after
// the call returned is a no-op, like a wakeup racing a timeout.
//
//lint:allocfree generation check, then the path's complete
func (w Pending) Complete() {
	if !w.Done() {
		w.b.complete()
	}
}

// Done reports whether the syscall already returned.
func (w Pending) Done() bool { return w.b == nil || w.b.gen != w.gen || w.b.done }

// CompleteAfter schedules Complete d from now as one engine event labelled
// name: the fd activity a workload plans against this particular call. If
// the call has returned by then, the event does nothing. A zero Pending
// schedules nothing.
//
//lint:allocfree a freelist node whose run is bound once, then one engine event
func (w Pending) CompleteAfter(d sim.Duration, name string) {
	if w.b == nil {
		return
	}
	l := w.b.p.l
	c := l.freeWakes
	if c != nil {
		l.freeWakes = c.next
	} else {
		//lint:ignore allocfree cold path: the freelist grows only to the high-water mark of scheduled completions
		c = &wake{l: l}
		//lint:ignore allocfree cold path: bound once per node, at the same high-water mark
		c.fn = c.run
	}
	c.w = w
	l.eng.After(d, name, c.fn)
}

// wake is one scheduled CompleteAfter. Nodes recycle through a freelist on
// the Linux system, so scheduling fd activity allocates nothing once warm.
type wake struct {
	l    *Linux
	w    Pending
	fn   func() // run, bound once
	next *wake
}

//lint:allocfree freelist push, then Complete on the saved handle
func (c *wake) run() {
	w := c.w
	c.w = Pending{}
	c.next = c.l.freeWakes
	c.l.freeWakes = c
	w.Complete()
}

// Select issues select(2) on the main thread. The continuation receives
// either a timeout or the remaining time at fd activity. A nil-timeout
// (blocking forever) select never touches the timer subsystem; model that
// by not calling Select at all.
func (p *Process) Select(timeout sim.Duration, cb func(SelectResult)) Pending {
	return p.main.Select(timeout, cb)
}

// Poll issues poll(2) on the main thread.
func (p *Process) Poll(timeout sim.Duration, cb func(SelectResult)) Pending {
	return p.main.Poll(timeout, cb)
}

// EpollWait issues epoll_wait(2) on the main thread, sharing the poll
// path's timer, as in the kernel.
func (p *Process) EpollWait(timeout sim.Duration, cb func(SelectResult)) Pending {
	return p.main.Poll(timeout, cb)
}

// Select issues select(2) from this thread. A thread blocks in one select
// at a time: selecting again before the previous call returned panics.
// cb is kept until the call returns, so a loop that passes the same
// pre-bound continuation every time blocks without allocating.
func (t *Thread) Select(timeout sim.Duration, cb func(SelectResult)) Pending {
	return t.sel.block(timeout, cb)
}

// Poll issues poll(2) from this thread, under the same one-call-at-a-time
// contract as Select.
func (t *Thread) Poll(timeout sim.Duration, cb func(SelectResult)) Pending {
	return t.poll.block(timeout, cb)
}

// block is the shared select/poll syscall path.
//
//lint:allocfree two trace records and a timer arm; the call's state lives in the thread
func (b *blocker) block(timeout sim.Duration, cb func(SelectResult)) Pending {
	if !b.done {
		panic("kernel: thread already blocked")
	}
	p := b.p
	l := p.l
	if timeout < 0 {
		timeout = 0
	}
	// The user record: exact requested value, measured at the syscall.
	l.tr.Log(trace.Record{
		T: l.eng.Now(), Op: trace.OpSet, TimerID: b.timer.ID(), Timeout: int64(timeout),
		PID: p.PID, Origin: b.origin, Flags: trace.FlagUser,
	})
	if timeout == 0 {
		// Non-blocking poll/select: returns immediately, arming nothing.
		// The zero "timeout value" still reaches the trace (it dominates
		// the paper's Figure 6 for Skype), paired with a satisfied cancel.
		l.tr.Log(trace.Record{
			T: l.eng.Now(), Op: trace.OpCancel, TimerID: b.timer.ID(),
			PID: p.PID, Origin: b.origin, Flags: trace.FlagUser | trace.FlagSatisfied,
		})
		cb(SelectResult{TimedOut: true})
		return Pending{}
	}
	b.gen++
	b.done = false
	b.deadline = l.eng.Now().Add(timeout)
	b.cb = cb
	l.base.ModTimeout(&b.timer, timeout)
	return Pending{b: b, gen: b.gen}
}

// finish ends the call in progress and returns its continuation. The path
// is free again before the continuation runs, so the continuation may
// block anew.
func (b *blocker) finish() func(SelectResult) {
	b.done = true
	cb := b.cb
	b.cb = nil
	return cb
}

// expire is the timer callback, bound once in init: the timeout elapsed
// with no fd activity.
//
//lint:allocfree one trace record, then the call's continuation
func (b *blocker) expire() {
	if b.done {
		return
	}
	l := b.p.l
	l.tr.Log(trace.Record{
		T: l.eng.Now(), Op: trace.OpExpire, TimerID: b.timer.ID(),
		PID: b.p.PID, Origin: b.origin, Flags: trace.FlagUser,
	})
	b.finish()(SelectResult{TimedOut: true})
}

// complete returns the call early: fd activity cancels the timer, and
// Linux writes the remaining time back.
//
//lint:allocfree timer cancel, one trace record, then the call's continuation
func (b *blocker) complete() {
	l := b.p.l
	_ = l.base.Del(&b.timer)
	l.tr.Log(trace.Record{
		T: l.eng.Now(), Op: trace.OpCancel, TimerID: b.timer.ID(),
		PID: b.p.PID, Origin: b.origin, Flags: trace.FlagUser | trace.FlagSatisfied,
	})
	remaining := b.deadline.Sub(l.eng.Now())
	if remaining < 0 {
		remaining = 0
	}
	// Linux rounds the written-back remainder to timer granularity.
	remaining = sim.Duration(jiffies.MsecsToJiffies(remaining)) * jiffies.JiffyDuration
	b.finish()(SelectResult{Remaining: remaining})
}

// Nanosleep blocks for the given duration via the hrtimer path (2.6.16+).
func (p *Process) Nanosleep(d sim.Duration, cb func()) {
	t := &jiffies.HRTimer{UserFlagged: true}
	p.l.hr.Init(t, p.Name+"/nanosleep", p.PID, cb)
	p.l.hr.Start(t, d)
}

// Alarm implements alarm(2): schedule SIGALRM after d; a zero d cancels any
// pending alarm. Returns the time remaining on a previously pending alarm,
// as the syscall does.
func (p *Process) Alarm(d sim.Duration, onSignal func()) sim.Duration {
	l := p.l
	var remaining sim.Duration
	if p.alarmTimer.Pending() {
		remaining = jiffies.JiffiesToTime(p.alarmTimer.Expires()).Sub(l.eng.Now())
		_ = l.base.Del(&p.alarmTimer)
		l.tr.Log(trace.Record{
			T: l.eng.Now(), Op: trace.OpCancel, TimerID: p.alarmTimer.ID(),
			PID: p.PID, Origin: p.alarmOrigin, Flags: trace.FlagUser,
		})
	}
	if d <= 0 {
		return remaining
	}
	p.alarmTimer.SetCallback(func() {
		l.tr.Log(trace.Record{
			T: l.eng.Now(), Op: trace.OpExpire, TimerID: p.alarmTimer.ID(),
			PID: p.PID, Origin: p.alarmOrigin, Flags: trace.FlagUser,
		})
		if onSignal != nil {
			onSignal()
		}
	})
	l.tr.Log(trace.Record{
		T: l.eng.Now(), Op: trace.OpSet, TimerID: p.alarmTimer.ID(), Timeout: int64(d),
		PID: p.PID, Origin: p.alarmOrigin, Flags: trace.FlagUser,
	})
	l.base.ModTimeout(&p.alarmTimer, d)
	return remaining
}

// PosixTimer is a timer created through the POSIX timer API
// (timer_create/timer_settime/timer_delete) — with alarm(2), the only two
// Linux system-call routes that arm a timer without blocking (Section 2.1).
type PosixTimer struct {
	p        *Process
	t        *jiffies.Timer
	origin   uint32
	interval sim.Duration
	fn       func()
	deleted  bool
}

// TimerCreate allocates a POSIX per-process timer delivering to fn.
func (p *Process) TimerCreate(label string, fn func()) *PosixTimer {
	pt := &PosixTimer{p: p, fn: fn}
	pt.t = p.quietTimer(p.Name + "/timer_settime:" + label)
	pt.origin = p.l.tr.Origin(p.Name + "/timer_settime:" + label)
	return pt
}

// Settime arms the timer: first expiry after value, then periodically every
// interval (zero interval = one-shot). A zero value disarms.
func (pt *PosixTimer) Settime(value, interval sim.Duration) {
	if pt.deleted {
		panic(fmt.Sprintf("kernel: timer_settime on deleted timer (pid %d)", pt.p.PID))
	}
	l := pt.p.l
	pt.interval = interval
	if value <= 0 {
		if pt.t.Pending() {
			_ = l.base.Del(pt.t)
			l.tr.Log(trace.Record{
				T: l.eng.Now(), Op: trace.OpCancel, TimerID: pt.t.ID(),
				PID: pt.p.PID, Origin: pt.origin, Flags: trace.FlagUser,
			})
		}
		return
	}
	pt.t.SetCallback(pt.expire)
	l.tr.Log(trace.Record{
		T: l.eng.Now(), Op: trace.OpSet, TimerID: pt.t.ID(), Timeout: int64(value),
		PID: pt.p.PID, Origin: pt.origin, Flags: trace.FlagUser,
	})
	l.base.ModTimeout(pt.t, value)
}

func (pt *PosixTimer) expire() {
	l := pt.p.l
	l.tr.Log(trace.Record{
		T: l.eng.Now(), Op: trace.OpExpire, TimerID: pt.t.ID(),
		PID: pt.p.PID, Origin: pt.origin, Flags: trace.FlagUser,
	})
	fn := pt.fn
	if pt.interval > 0 && !pt.deleted {
		l.tr.Log(trace.Record{
			T: l.eng.Now(), Op: trace.OpSet, TimerID: pt.t.ID(), Timeout: int64(pt.interval),
			PID: pt.p.PID, Origin: pt.origin, Flags: trace.FlagUser,
		})
		l.base.ModTimeout(pt.t, pt.interval)
	}
	if fn != nil {
		fn()
	}
}

// Delete is timer_delete: disarm and invalidate.
func (pt *PosixTimer) Delete() {
	if pt.t.Pending() {
		_ = pt.p.l.base.Del(pt.t)
		pt.p.l.tr.Log(trace.Record{
			T: pt.p.l.eng.Now(), Op: trace.OpCancel, TimerID: pt.t.ID(),
			PID: pt.p.PID, Origin: pt.origin, Flags: trace.FlagUser,
		})
	}
	pt.deleted = true
}

// ScheduleTimeout is the kernel-internal blocking pattern (Section 2.1): a
// thread executing in the kernel installs a timer callback and separately
// asks the scheduler to block. Drivers and kernel threads use it; the
// timeout is a kernel access, not a user one.
func (l *Linux) ScheduleTimeout(origin string, d sim.Duration, cb func(timedOut bool)) *KernelWait {
	w := &KernelWait{l: l, cb: cb}
	l.base.Init(&w.t, origin, 0, w.expire)
	l.base.ModTimeout(&w.t, d)
	return w
}

// KernelWait is one ScheduleTimeout sleep. The waker ends it early with
// Complete.
type KernelWait struct {
	l    *Linux
	t    jiffies.Timer
	cb   func(timedOut bool)
	done bool
}

// Complete wakes the sleeper before its timeout. Calling it after the
// wait ended is a no-op.
func (w *KernelWait) Complete() {
	if w.done {
		return
	}
	w.done = true
	_ = w.l.base.Del(&w.t)
	w.cb(false)
}

func (w *KernelWait) expire() {
	if w.done {
		return
	}
	w.done = true
	w.cb(true)
}
