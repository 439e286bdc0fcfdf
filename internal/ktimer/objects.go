package ktimer

import (
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Object is an NT dispatcher object: anything a thread can wait on. KTimer
// embeds it; events and processes in the workload models use it directly.
// Auto-reset (synchronization) objects release exactly one waiter per
// signal and clear themselves; manual-reset objects stay signaled.
type Object struct {
	signaled  bool
	autoReset bool
	waiters   []waiter
	spare     []waiter // signal's second waiter array, empty between signals
}

// waiter is one entry of an object's waiter list: a thread's wait and the
// generation it was in when it joined. Threads reuse their wait, so the
// generation tells a wait that joined the list apart from a later one.
type waiter struct {
	w   *wait
	gen uint64
}

func (o *Object) init() { o.waiters = nil }

// NewAutoResetEvent returns a synchronization-style event: one waiter is
// released per signal.
func NewAutoResetEvent() *Object {
	o := &Object{autoReset: true}
	o.init()
	return o
}

// NewEvent returns a manual-reset event-style dispatcher object.
func NewEvent() *Object {
	o := &Object{}
	o.init()
	return o
}

// Signaled reports the object's state.
func (o *Object) Signaled() bool { return o.signaled }

// signal sets the object and satisfies waiters: all of them for
// manual-reset objects, exactly one (consuming the signal) for auto-reset.
//
//lint:allocfree waiter-array swap, then each satisfied wait's continuation
func (o *Object) signal(k *Kernel) {
	if o.autoReset {
		if len(o.waiters) > 0 {
			x := o.waiters[0]
			o.signaled = false
			x.w.satisfy(k, x.gen)
			return
		}
		o.signaled = true
		return
	}
	o.signaled = true
	// Satisfy the waiters present now; a continuation that waits on o
	// again joins a fresh list. The two backing arrays swap, so a manual-
	// reset event that is waited on in a loop stops allocating once warm.
	waiters := o.waiters
	o.waiters, o.spare = o.spare[:0], nil
	for _, x := range waiters {
		x.w.satisfy(k, x.gen)
	}
	clear(waiters)
	o.spare = waiters[:0]
}

// Reset clears the signaled state (ResetEvent).
func (o *Object) Reset() { o.signaled = false }

// Signal sets an object and wakes its waiters (SetEvent).
func (k *Kernel) Signal(o *Object) { o.signal(k) }

// WaitResult is the outcome of a timed wait.
type WaitResult int

const (
	// WaitSatisfied: the object was signaled before the timeout.
	WaitSatisfied WaitResult = iota
	// WaitTimeout: the timeout elapsed first.
	WaitTimeout
)

// Thread models the part of an NT thread the timer study cares about: its
// identity and its dedicated wait KTIMER (Section 2.2: "wait timeouts are
// implemented using a dedicated KTIMER object in the kernel's thread
// datastructure and have a fast-path insertion into the kernel timer ring").
// A thread waits on at most one thing at a time, so the wait's state lives
// in the thread too and waiting allocates nothing.
type Thread struct {
	// PID is the owning process.
	PID int32
	// Name labels trace origins, e.g. "outlook.exe!ui".
	Name string

	k         *Kernel
	waitTimer *KTimer
	w         wait
}

// NewThread creates a thread with its dedicated wait timer, whose expiry
// DPC is bound once.
func (k *Kernel) NewThread(pid int32, name string) *Thread {
	th := &Thread{PID: pid, Name: name, k: k}
	th.w.th = th
	th.waitTimer = k.NewTimer(name+"/wait", pid, true, th.w.timerDPC)
	th.waitTimer.wait = &th.w
	return th
}

// wait is a thread's in-progress wait. gen counts waits; expiredGen is the
// gen that was current when a clock interrupt last expired the wait timer,
// so the timer's DPC, which runs after the whole interrupt, can tell
// whether the wait it was queued for is still the one in progress.
type wait struct {
	th         *Thread
	objs       []*Object // the thread's own copy of WaitFor's objects
	cb         func(WaitResult)
	active     bool
	gen        uint64
	expiredGen uint64
}

// satisfy ends wait gen because an object it waits on was signaled. A
// signal that reaches a wait which already ended, or a later wait of the
// same thread, does nothing.
//
//lint:allocfree detach, one timer cancel and trace record, then the continuation
func (w *wait) satisfy(k *Kernel, gen uint64) {
	if !w.active || w.gen != gen {
		return
	}
	th := w.th
	// Cancel the wait timer; the FlagSatisfied cancel record is how the
	// Vista instrumentation distinguishes satisfied waits from timeouts.
	if th.waitTimer.Pending() {
		_ = k.table.Cancel(&th.waitTimer.entry)
	}
	k.tr.Log(trace.Record{
		T: k.eng.Now(), Op: trace.OpCancel, TimerID: th.waitTimer.id,
		PID: th.PID, Origin: th.waitTimer.originID,
		Flags: th.waitTimer.flags | trace.FlagSatisfied,
	})
	w.finish()(WaitSatisfied)
}

// timerDPC is the wait timer's expiry DPC. It expires the wait only if the
// interrupt that fired the timer found this same wait in progress: a wait
// satisfied earlier in that interrupt may already have been followed by
// the thread's next wait.
//
//lint:allocfree generation check, then the continuation
func (w *wait) timerDPC() {
	if !w.active || w.expiredGen != w.gen {
		return
	}
	w.finish()(WaitTimeout)
}

// finish ends the wait and returns its continuation. The thread is free
// again before the continuation runs, so the continuation may wait anew.
//
//lint:allocfree waiter-list removal in place
func (w *wait) finish() func(WaitResult) {
	w.active = false
	for _, o := range w.objs {
		for i, x := range o.waiters {
			if x.w == w {
				o.waiters = append(o.waiters[:i], o.waiters[i+1:]...)
				break
			}
		}
	}
	clear(w.objs)
	w.objs = w.objs[:0]
	cb := w.cb
	w.cb = nil
	return cb
}

// Forever is the "no timeout" sentinel for waits.
const Forever = sim.Duration(1<<62 - 1)

// WaitFor is WaitForSingleObject/WaitForMultipleObjects (wait-any): block
// the thread on the objects with a relative timeout, invoking cb exactly
// once with the outcome. A wait on an already-signaled object completes
// immediately without arming the timer. The continuation-passing form
// replaces real blocking: the simulation is event-driven. Waiting again
// before the previous wait ended panics. cb is kept until the wait ends,
// so a loop that passes the same pre-bound continuation every time waits
// without allocating.
//
//lint:allocfree the wait fast path: waiter-list appends, one timer insert, one trace record
func (th *Thread) WaitFor(timeout sim.Duration, cb func(WaitResult), objs ...*Object) {
	w := &th.w
	if w.active {
		panic("ktimer: thread already waiting")
	}
	k := th.k
	for _, o := range objs {
		if o.signaled {
			if o.autoReset {
				o.signaled = false // the wait consumes the signal
			}
			cb(WaitSatisfied)
			return
		}
	}
	if timeout <= 0 {
		// Zero-timeout wait: a poll. Returns WAIT_TIMEOUT immediately; the
		// zero value still reaches the trace (Figure 7's Vista workloads
		// are full of them), paired with an immediate expiry.
		wt := th.waitTimer
		k.tr.Log(trace.Record{
			T: k.eng.Now(), Op: trace.OpWait, TimerID: wt.id, Timeout: 0,
			PID: th.PID, Origin: wt.originID, Flags: wt.flags,
		})
		k.tr.Log(trace.Record{
			T: k.eng.Now(), Op: trace.OpExpire, TimerID: wt.id,
			PID: th.PID, Origin: wt.originID, Flags: wt.flags,
		})
		cb(WaitTimeout)
		return
	}
	w.gen++
	w.active = true
	w.cb = cb
	w.objs = append(w.objs, objs...)
	for _, o := range objs {
		o.waiters = append(o.waiters, waiter{w, w.gen})
	}
	if timeout >= Forever {
		// Infinite waits never touch the timer subsystem.
		return
	}
	// Fast-path insertion of the thread's dedicated KTIMER; traced as
	// OpWait with the user-supplied timeout (Section 3.3: "a single event
	// on thread unblock which logs ... the user-supplied timeout parameter,
	// and a boolean indicating whether the wait was satisfied or timed
	// out" — we log the arming side too, which subsumes it).
	wt := th.waitTimer
	wt.due = k.eng.Now().Add(timeout)
	k.table.Schedule(&wt.entry, timeToTick(wt.due))
	wt.entry.Payload = wt
	k.tr.Log(trace.Record{
		T: k.eng.Now(), Op: trace.OpWait, TimerID: wt.id, Timeout: int64(timeout),
		PID: th.PID, Origin: wt.originID, Flags: wt.flags,
	})
}

// Sleep is KeDelayExecutionThread / Win32 Sleep: a wait on nothing with a
// timeout.
func (th *Thread) Sleep(d sim.Duration, cb func()) {
	th.WaitFor(d, func(WaitResult) { cb() })
}
