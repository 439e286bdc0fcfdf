// Package ktimer reimplements the Windows Vista timer stack the paper
// instruments (Section 2.2), from the NT kernel's KTIMER objects upward
// through the layers that multiplex them:
//
//   - KTIMER ring processed by the clock-interrupt expiry DPC
//     (KeSetTimer / KeCancelTimer),
//   - dispatcher objects and thread waits with the dedicated per-thread
//     wait timer fast path (WaitForSingleObject),
//   - the NTDLL threadpool timer: a user-level timer ring multiplexed over
//     a single kernel timer (SetThreadpoolTimer), with coalescing windows,
//   - Win32 GUI timers (SetTimer/KillTimer) delivering WM_TIMER messages
//     through a message queue,
//   - the Winsock2 select path: a blocking ioctl on afd.sys that allocates
//     a fresh KTIMER per call.
//
// The distinctive property the paper highlights — Vista timer structures
// are mostly allocated on the fly and never reused — holds here: every
// dynamically created KTimer gets a fresh trace identity.
package ktimer

import (
	"timerstudy/internal/sim"
	"timerstudy/internal/timerwheel"
	"timerstudy/internal/trace"
)

// ClockInterval is Vista's default clock interrupt period: 15.625 ms
// (64 Hz).
const ClockInterval = sim.Duration(15625 * int64(sim.Microsecond))

// timeToTick maps an absolute due time to the first clock interrupt at or
// after it — NT delivers a timer at the first tick where DueTime has passed.
func timeToTick(t sim.Time) uint64 {
	tick := uint64(t) / uint64(ClockInterval)
	if sim.Time(tick)*sim.Time(ClockInterval) < t {
		tick++
	}
	return tick
}

func tickToTime(tick uint64) sim.Time { return sim.Time(tick) * sim.Time(ClockInterval) }

// KTimer is the analog of the NT kernel's KTIMER. It is a dispatcher
// object: threads can wait on it, and it may also carry an expiry DPC and a
// recurring period.
type KTimer struct {
	Object // embedded dispatcher object: signaled state + waiters

	k      *Kernel
	entry  timerwheel.Timer
	due    sim.Time
	period sim.Duration
	dpc    func()
	id     uint64
	wait   *wait // the owning thread's wait, for a thread's dedicated wait timer

	originID uint32
	origin   string
	pid      int32
	flags    trace.Flags
}

// ID returns the timer's trace identity. Fresh for every allocation.
func (t *KTimer) ID() uint64 { return t.id }

// Pending reports whether the timer is in the timer table.
func (t *KTimer) Pending() bool { return t.entry.Pending() }

// SetDPC binds or replaces the expiry DPC.
func (t *KTimer) SetDPC(fn func()) { t.dpc = fn }

// Kernel holds the NT timer machinery: the timer table (a hashed wheel, as
// in NT), the DPC queue, and the clock interrupt.
type Kernel struct {
	eng    *sim.Engine
	tr     trace.Sink
	table  timerwheel.Queue
	nextID uint64
	dpcs   []func()
	inDPC  bool

	// dynamicTick skips idle clock interrupts, jumping straight to the
	// next due timer — Section 1: "Vista also dynamically adjusts the
	// frequency of the periodic timer interrupt, processing timers
	// according to observed CPU load."
	dynamicTick bool
	nextDue     dueHeap
	interruptEv sim.Event
	interruptFn func()                  // k.clockInterrupt bound once; arming must not allocate
	expireFn    func(*timerwheel.Timer) // k.expire bound once; each interrupt passes it to Advance

	// ClockInterrupts counts ISR invocations; ExpiredCount counts fired
	// timers.
	ClockInterrupts uint64
	ExpiredCount    uint64
}

// KernelOption configures the NT timer machinery.
type KernelOption func(*Kernel)

// WithDynamicTick enables Vista's load-adaptive clock interrupt: interrupts
// with no due timers are skipped entirely.
func WithDynamicTick(enabled bool) KernelOption {
	return func(k *Kernel) { k.dynamicTick = enabled }
}

// NewKernel builds the timer machinery and starts the clock interrupt.
func NewKernel(eng *sim.Engine, tr trace.Sink, opts ...KernelOption) *Kernel {
	k := &Kernel{eng: eng, tr: tr, table: timerwheel.NewHashedWheel(256)}
	for _, o := range opts {
		o(k)
	}
	k.interruptFn = k.clockInterrupt
	k.expireFn = k.expire
	k.scheduleInterrupt()
	return k
}

// dueHeap tracks pending due-ticks for the dynamic tick's next-interrupt
// computation (entries may be stale; validated by comparing to the clock).
type dueHeap []uint64

func (h *dueHeap) push(tick uint64) {
	*h = append(*h, tick)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *dueHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && (*h)[l] < (*h)[m] {
			m = l
		}
		if r < n && (*h)[r] < (*h)[m] {
			m = r
		}
		if m == i {
			return
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Engine exposes the underlying engine (used by upper layers for message
// loop latencies).
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Trace exposes the trace buffer for the upper layers.
func (k *Kernel) Trace() trace.Sink { return k.tr }

// NewTimer allocates a KTIMER with its attribution. Most Vista code paths
// allocate these on the fly; allocating is free of trace records (the paper
// instruments Set/Cancel and expiry, not allocation).
func (k *Kernel) NewTimer(origin string, pid int32, user bool, dpc func()) *KTimer {
	k.nextID++
	t := &KTimer{
		k: k, dpc: dpc, id: k.nextID,
		origin: origin, originID: k.tr.Origin(origin), pid: pid,
	}
	if user {
		t.flags = trace.FlagUser
	}
	t.Object.init()
	return t
}

// RenewTimer gives an idle timer object the identity NewTimer would give a
// fresh allocation: the next ID, the origin interned now, the PID and
// user flag, no signaled state. The DPC binding is kept. It lets a caller
// that drops and reallocates KTIMERs reuse the Go object without changing
// a trace record.
func (k *Kernel) RenewTimer(t *KTimer, origin string, pid int32, user bool) {
	if t.Pending() {
		panic("ktimer: RenewTimer on a pending timer")
	}
	k.nextID++
	*t = KTimer{
		k: k, dpc: t.dpc, id: k.nextID,
		origin: origin, originID: k.tr.Origin(origin), pid: pid,
	}
	if user {
		t.flags = trace.FlagUser
	}
	t.Object.init()
}

// SetTimer is KeSetTimer(Ex): arm the timer for an absolute due time with an
// optional recurring period. Re-setting a pending timer moves it. The
// signaled state resets, as for the real dispatcher object.
func (k *Kernel) SetTimer(t *KTimer, due sim.Time, period sim.Duration, absolute bool) {
	t.due = due
	t.period = period
	t.signaled = false
	flags := t.flags
	if absolute {
		flags |= trace.FlagAbsolute
	}
	if period > 0 {
		flags |= trace.FlagPeriodic
	}
	k.table.Schedule(&t.entry, timeToTick(due))
	t.entry.Payload = t
	if k.dynamicTick {
		k.nextDue.push(timeToTick(due))
		k.retick()
	}
	k.tr.Log(trace.Record{
		T: k.eng.Now(), Op: trace.OpSet, TimerID: t.id,
		Timeout: int64(due.Sub(k.eng.Now())),
		PID:     t.pid, Origin: t.originID, Flags: flags,
	})
}

// SetTimerIn arms the timer for a relative delay — the negative-DueTime form
// of KeSetTimer.
func (k *Kernel) SetTimerIn(t *KTimer, d sim.Duration, period sim.Duration) {
	if d < 0 {
		d = 0
	}
	k.SetTimer(t, k.eng.Now().Add(d), period, false)
}

// CancelTimer is KeCancelTimer. Always an access; returns whether the timer
// was pending.
func (k *Kernel) CancelTimer(t *KTimer) bool {
	active := t.entry.Pending()
	if active {
		_ = k.table.Cancel(&t.entry)
	}
	k.tr.Log(trace.Record{
		T: k.eng.Now(), Op: trace.OpCancel, TimerID: t.id,
		PID: t.pid, Origin: t.originID, Flags: t.flags,
	})
	return active
}

// QueueDPC appends a deferred procedure call; the queue drains at the end of
// the current interrupt (or immediately if none is in progress).
func (k *Kernel) QueueDPC(fn func()) {
	k.dpcs = append(k.dpcs, fn)
	if !k.inDPC {
		k.drainDPCs()
	}
}

func (k *Kernel) drainDPCs() {
	k.inDPC = true
	for len(k.dpcs) > 0 {
		fn := k.dpcs[0]
		k.dpcs = k.dpcs[:copy(k.dpcs, k.dpcs[1:])]
		fn()
	}
	k.inDPC = false
}

func (k *Kernel) scheduleInterrupt() {
	cur := uint64(k.eng.Now()) / uint64(ClockInterval)
	nextTick := cur + 1
	if k.dynamicTick {
		// Skip idle interrupts: jump to the earliest pending due tick.
		for len(k.nextDue) > 0 && k.nextDue[0] <= cur {
			k.nextDue.pop()
		}
		if len(k.nextDue) == 0 {
			// Nothing pending: no interrupt at all until the next set.
			k.interruptEv = sim.Event{}
			return
		}
		nextTick = k.nextDue[0]
	}
	k.interruptEv = k.eng.At(tickToTime(nextTick), "ktimer:clock-interrupt", k.interruptFn)
}

// retick pulls the scheduled interrupt forward when a newly set timer is
// due before it (or when no interrupt was armed at all).
func (k *Kernel) retick() {
	if k.inDPC {
		return // clockInterrupt reschedules on exit
	}
	cur := uint64(k.eng.Now()) / uint64(ClockInterval)
	for len(k.nextDue) > 0 && k.nextDue[0] <= cur {
		k.nextDue.pop()
	}
	if len(k.nextDue) == 0 {
		return
	}
	due := tickToTime(k.nextDue[0])
	if !k.interruptEv.Pending() {
		k.interruptEv = k.eng.At(due, "ktimer:clock-interrupt", k.interruptFn)
		return
	}
	if k.interruptEv.When() > due {
		k.eng.Reschedule(k.interruptEv, due)
	}
}

// clockInterrupt is the ISR + timer expiry DPC: it pops due timers from the
// table, signals them, queues their DPCs, re-arms periodic ones, then drains
// the DPC queue.
//
//lint:allocfree one table advance with the pre-bound expireFn, the DPC drain, the next interrupt
func (k *Kernel) clockInterrupt() {
	k.ClockInterrupts++
	tick := uint64(k.eng.Now()) / uint64(ClockInterval)
	k.inDPC = true
	k.table.Advance(tick, k.expireFn)
	k.inDPC = false
	k.drainDPCs()
	k.scheduleInterrupt()
}

// expire fires one due timer inside the clock interrupt.
//
//lint:allocfree one trace record, the signal, a DPC queue append and the periodic re-arm
func (k *Kernel) expire(e *timerwheel.Timer) {
	t := e.Payload.(*KTimer)
	k.ExpiredCount++
	k.tr.Log(trace.Record{
		T: k.eng.Now(), Op: trace.OpExpire, TimerID: t.id,
		PID: t.pid, Origin: t.originID, Flags: t.flags,
	})
	if w := t.wait; w != nil {
		// Snapshot which wait this expiry belongs to; its DPC runs only
		// after the whole interrupt.
		w.expiredGen = w.gen
	}
	t.signal(k)
	if t.dpc != nil {
		k.dpcs = append(k.dpcs, t.dpc)
	}
	if t.period > 0 {
		// Periodic re-arm happens inside the kernel without a fresh
		// KeSetTimer trace record, matching NT (the expiry DPC re-queues
		// it); the paper sees one set and many expiries for these.
		t.due = k.eng.Now().Add(t.period)
		k.table.Schedule(&t.entry, timeToTick(t.due))
		t.entry.Payload = t
		if k.dynamicTick {
			k.nextDue.push(timeToTick(t.due))
		}
	}
}
