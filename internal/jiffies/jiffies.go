// Package jiffies reimplements the Linux 2.6.23 standard kernel timer
// subsystem the paper instruments (Section 2.1): jiffy-granular timers on a
// cascading hierarchical timing wheel, driven by a periodic tick, with the
// three power-saving extensions the paper discusses — round_jiffies
// batching (2.6.20), dynticks/NO_HZ idle tick skipping (2.6.21), and
// deferrable timers (2.6.22) — plus the separate high-resolution timer
// facility (2.6.16).
//
// The package exposes the same primitive operations the paper's
// instrumentation hooks: init_timer, __mod_timer, del_timer and
// __run_timers, and logs every one of them to a trace.Buffer in the format
// internal/analysis consumes.
package jiffies

import (
	"fmt"

	"timerstudy/internal/sim"
	"timerstudy/internal/timerwheel"
	"timerstudy/internal/trace"
)

// HZ is the tick rate the paper's kernel used (CONFIG_HZ=250).
const HZ = 250

// JiffyDuration is the length of one jiffy: 4 ms at 250 Hz.
const JiffyDuration = sim.Duration(int64(sim.Second) / HZ)

// TimerState mirrors the lifecycle of a struct timer_list.
type TimerState uint8

const (
	// StateUninit: init_timer has not run.
	StateUninit TimerState = iota
	// StateIdle: initialized but not pending.
	StateIdle
	// StatePending: armed in the wheel.
	StatePending
)

// Timer is the analog of Linux struct timer_list. Like the kernel's, it is
// typically statically allocated by its owning subsystem and reused for
// every timeout that subsystem sets, which is what lets the paper's analysis
// correlate successive uses (Section 4.1.1).
type Timer struct {
	base  *Base
	entry timerwheel.Timer
	fn    func()
	id    uint64
	gen   uint64 // bumped on every Mod/Del, validates nextExpiry heap entries

	// Origin is the "call stack" label recorded on every operation.
	Origin string
	// PID attributes the timer to a process (0 = kernel).
	PID int32
	// state sits with the one-byte flags below, which packs the struct
	// into 144 bytes instead of 152 (TestTimerSize).
	state TimerState
	// Deferrable marks the 2.6.22 flag: the timer does not wake an idle CPU.
	Deferrable bool
	// UserFlagged marks timers armed on behalf of user space (syscall
	// timeouts); it sets trace.FlagUser on the records.
	UserFlagged bool
	// Quiet suppresses the base's own trace records. The syscall layer
	// uses it for timers whose operations it logs itself at the syscall
	// boundary, where the user-supplied timeout is visible without jitter
	// (Section 3.1) — each access is recorded exactly once.
	Quiet bool

	originID uint32
}

// ID returns the timer's stable identity (the analog of its kernel address).
func (t *Timer) ID() uint64 { return t.id }

// SetCallback replaces the expiry callback (setup_timer on a live struct).
// The syscall layer uses it to bind per-call continuations to a reused
// on-stack timer structure.
func (t *Timer) SetCallback(fn func()) { t.fn = fn }

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.state == StatePending }

// Expires returns the absolute jiffy the timer is armed for (meaningful only
// while pending).
func (t *Timer) Expires() uint64 { return t.entry.Expires() }

// Option configures a Base.
type Option func(*Base)

// WithQueue substitutes the timer-queue data structure (default:
// hierarchical wheel, as in the real kernel). Used by the ablation benches.
func WithQueue(q timerwheel.Queue) Option { return func(b *Base) { b.wheel = q } }

// WithNoHZ enables dynticks: the periodic tick is suppressed while no
// non-deferrable timer is due (2.6.21 behaviour).
func WithNoHZ(enabled bool) Option { return func(b *Base) { b.nohz = enabled } }

// Base is the per-CPU timer base (struct tvec_base). The simulation is
// uniprocessor, like the paper's Linux testbed, so there is exactly one.
type Base struct {
	eng   *sim.Engine
	tr    trace.Sink
	wheel timerwheel.Queue
	jiffy uint64 // jiffies counter: last processed tick
	nohz  bool

	tickEv sim.Event
	tickFn func()                  // b.tick bound once; a method value would allocate per arm
	fireFn func(*timerwheel.Timer) // b.fire bound once, for the same reason
	nextID uint64

	// nextHeap tracks pending non-deferrable expiries for the dynticks
	// next-event computation; entries are validated lazily against gen.
	// Only a NO_HZ base reads it, so only a NO_HZ base fills it.
	nextHeap expiryHeap

	// RunningTimers counts __run_timers invocations that fired at least one
	// callback; TickCount counts tick interrupts taken. Their ratio shows
	// what dynticks and deferrable timers save.
	TickCount    uint64
	ExpiredCount uint64
}

// NewBase creates a timer base bound to the engine and trace buffer and
// starts its tick. The buffer must not be nil (use a zero-capacity buffer to
// discard records).
func NewBase(eng *sim.Engine, tr trace.Sink, opts ...Option) *Base {
	b := &Base{eng: eng, tr: tr}
	for _, o := range opts {
		o(b)
	}
	if b.wheel == nil {
		b.wheel = timerwheel.NewHierarchicalWheel()
	}
	b.tickFn = b.tick
	b.fireFn = b.fire
	b.scheduleTick(b.eng.Now().Add(JiffyDuration))
	return b
}

// Jiffies returns the current jiffies value as kernel code reads the
// `jiffies` variable: the tick the clock currently sits in. Under dynticks
// the real kernel updates jiffies on any wakeup from idle
// (tick_nohz_update_jiffies); deriving it from the virtual clock gives the
// same always-current view.
func (b *Base) Jiffies() uint64 { return uint64(b.eng.Now()) / uint64(JiffyDuration) }

// Now returns current virtual time (convenience).
func (b *Base) Now() sim.Time { return b.eng.Now() }

// TimeToJiffies converts an absolute virtual time to the jiffy in which it
// falls, rounding up: a timeout can never be delivered early.
func TimeToJiffies(t sim.Time) uint64 {
	j := uint64(t) / uint64(JiffyDuration)
	if sim.Time(j)*sim.Time(JiffyDuration) < t {
		j++
	}
	return j
}

// JiffiesToTime converts an absolute jiffy count to the virtual instant of
// that tick.
func JiffiesToTime(j uint64) sim.Time { return sim.Time(j) * sim.Time(JiffyDuration) }

// MsecsToJiffies converts a duration to jiffies, rounding up (msecs_to_jiffies).
func MsecsToJiffies(d sim.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	j := uint64(d) / uint64(JiffyDuration)
	if sim.Duration(j)*JiffyDuration < d {
		j++
	}
	return j
}

// RoundJiffies rounds an absolute jiffy value to the next whole second so
// that imprecise timers expire in batches (round_jiffies, 2.6.20). Following
// the kernel: values round to the nearest second, but never into the past.
func (b *Base) RoundJiffies(j uint64) uint64 {
	rem := j % HZ
	rounded := j - rem
	if rem >= HZ/4 {
		rounded += HZ
	}
	if rounded <= b.Jiffies() {
		return j
	}
	return rounded
}

// RoundJiffiesRelative rounds a relative jiffy delta the same way
// (round_jiffies_relative).
func (b *Base) RoundJiffiesRelative(dj uint64) uint64 {
	now := b.Jiffies()
	abs := b.RoundJiffies(now + dj)
	if abs <= now {
		return dj
	}
	return abs - now
}

// Init is init_timer/setup_timer: it binds the callback and attribution and
// makes the struct usable. Calling Mod or Del on an uninitialized timer
// panics, mirroring the kernel oops.
func (b *Base) Init(t *Timer, origin string, pid int32, fn func()) {
	if t.state == StatePending {
		panic("jiffies: init_timer on pending timer")
	}
	b.nextID++
	t.base = b
	t.fn = fn
	t.state = StateIdle
	t.id = b.nextID
	t.Origin = origin
	t.PID = pid
	t.originID = b.tr.Origin(origin)
	if !t.Quiet {
		b.tr.Log(trace.Record{
			T: b.eng.Now(), Op: trace.OpInit, TimerID: t.id,
			PID: pid, Origin: t.originID, Flags: t.flags(),
		})
	}
}

func (t *Timer) flags() trace.Flags {
	var f trace.Flags
	if t.UserFlagged {
		f |= trace.FlagUser
	}
	if t.Deferrable {
		f |= trace.FlagDeferrable
	}
	return f
}

// Mod is __mod_timer: arm (or re-arm) the timer for an absolute jiffy value.
// As in the kernel, callers compute the absolute expiry themselves — which
// is exactly where the paper's observed up-to-2 ms timeout jitter comes
// from, since the computation happens partway through a jiffy.
//
//lint:allocfree the mod_timer path: wheel insert plus one trace record; the dynticks heap grows only under NO_HZ
func (b *Base) Mod(t *Timer, expires uint64) {
	if t.state == StateUninit {
		//lint:ignore allocfree panic formatting runs once, on a programming error, never in steady state
		panic(fmt.Sprintf("jiffies: mod_timer on uninitialized timer %q", t.Origin))
	}
	t.gen++
	t.state = StatePending
	b.wheel.Schedule(&t.entry, expires)
	t.entry.Payload = t
	if b.nohz && !t.Deferrable {
		b.pushNext(t)
	}
	// The traced timeout is relative to *now*, as the instrumentation in
	// Section 3.1 measures it.
	if !t.Quiet {
		rel := int64(JiffiesToTime(expires)) - int64(b.eng.Now())
		b.tr.Log(trace.Record{
			T: b.eng.Now(), Op: trace.OpSet, TimerID: t.id, Timeout: rel,
			PID: t.PID, Origin: t.originID, Flags: t.flags(),
		})
	}
	b.retick()
}

// ModTimeout arms the timer for a relative duration from now, the common
// calling pattern (mod_timer(t, jiffies + delta)).
func (b *Base) ModTimeout(t *Timer, d sim.Duration) {
	b.Mod(t, TimeToJiffies(b.eng.Now().Add(d)))
}

// Del is del_timer: cancel the timer if pending. Calling it on an idle timer
// is explicitly legal (the paper observed repeated deletions of
// already-deleted timers) and is still logged as an access.
//
//lint:allocfree the del_timer path: wheel unlink plus one trace record
func (b *Base) Del(t *Timer) bool {
	if t.state == StateUninit {
		//lint:ignore allocfree panic formatting runs once, on a programming error, never in steady state
		panic(fmt.Sprintf("jiffies: del_timer on uninitialized timer %q", t.Origin))
	}
	t.gen++
	active := t.state == StatePending
	if active {
		_ = b.wheel.Cancel(&t.entry)
		t.state = StateIdle
	}
	if !t.Quiet {
		b.tr.Log(trace.Record{
			T: b.eng.Now(), Op: trace.OpCancel, TimerID: t.id,
			PID: t.PID, Origin: t.originID, Flags: t.flags(),
		})
	}
	return active
}

// runTimers is __run_timers: called from the tick interrupt, fires all
// expired callbacks in bottom-half context.
//
//lint:allocfree one wheel advance with the pre-bound fireFn
func (b *Base) runTimers() {
	b.wheel.Advance(b.jiffy, b.fireFn)
}

// fire expires one timer: it logs the expiry and runs the callback.
//
//lint:allocfree state update, one trace record, then the owner's callback
func (b *Base) fire(e *timerwheel.Timer) {
	t := e.Payload.(*Timer)
	t.gen++
	t.state = StateIdle
	b.ExpiredCount++
	if !t.Quiet {
		b.tr.Log(trace.Record{
			T: b.eng.Now(), Op: trace.OpExpire, TimerID: t.id,
			PID: t.PID, Origin: t.originID, Flags: t.flags(),
		})
	}
	t.fn()
}

// tick is the periodic timer interrupt.
//
//lint:allocfree the tick path: run expired timers, then re-arm the pre-bound tickFn
func (b *Base) tick() {
	b.jiffy = TimeToJiffies(b.eng.Now())
	b.TickCount++
	b.runTimers()
	b.scheduleNextTick()
}

func (b *Base) scheduleTick(at sim.Time) {
	b.tickEv = b.eng.At(at, "jiffies:tick", b.tickFn)
}

// scheduleNextTick implements the dynticks decision: with NO_HZ off the tick
// is strictly periodic; with it on, the next interrupt is deferred to the
// next non-deferrable expiry (or a 1-second watchdog cap, as the kernel
// keeps for clocksource maintenance).
func (b *Base) scheduleNextTick() {
	next := JiffiesToTime(b.jiffy + 1)
	if b.nohz {
		if nj, ok := b.nextExpiryJiffy(); ok {
			if nj <= b.jiffy+1 {
				// due now or next tick: keep periodic
			} else {
				next = JiffiesToTime(nj)
			}
		} else {
			// Fully idle: sleep up to 1 s (kernel keeps a max sleep).
			next = JiffiesToTime(b.jiffy + HZ)
		}
	}
	b.scheduleTick(next)
}

// retick re-evaluates the pending tick after a Mod, so that under dynticks a
// newly armed near timer is not missed while the CPU sleeps.
func (b *Base) retick() {
	if !b.nohz || !b.tickEv.Pending() {
		return
	}
	if nj, ok := b.nextExpiryJiffy(); ok {
		due := JiffiesToTime(nj)
		if due < b.tickEv.When() {
			if due <= b.eng.Now() {
				due = JiffiesToTime(b.jiffy + 1)
			}
			b.eng.Reschedule(b.tickEv, due)
		}
	}
}

// --- next-expiry tracking for dynticks ---

type expiryEntry struct {
	expires uint64
	gen     uint64
	t       *Timer
}

type expiryHeap []expiryEntry

func (h expiryHeap) less(i, j int) bool { return h[i].expires < h[j].expires }

func (b *Base) pushNext(t *Timer) {
	h := &b.nextHeap
	*h = append(*h, expiryEntry{expires: t.entry.Expires(), gen: t.gen, t: t})
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (b *Base) popNext() {
	h := &b.nextHeap
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
}

// nextExpiryJiffy returns the earliest pending non-deferrable expiry,
// discarding stale heap entries as it goes (get_next_timer_interrupt).
func (b *Base) nextExpiryJiffy() (uint64, bool) {
	h := &b.nextHeap
	for len(*h) > 0 {
		top := (*h)[0]
		if top.t.state == StatePending && top.t.gen == top.gen && !top.t.Deferrable {
			return top.expires, true
		}
		b.popNext()
	}
	return 0, false
}
