package workloads

import (
	"math/rand"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/sim"
)

// HostKit is the reusable per-host modeling toolkit: the random-delay
// helpers, the periodic-kernel-timer and select-loop idioms, and the
// block-layer timer slabs that every Linux workload model is built from.
// The single-machine workloads (linuxSystem) delegate here; the fleet's
// host models (internal/fleet) construct their own kit per simulated host,
// so a 1k-host datacenter boots 1k instances of the same daemons the
// paper's single traced box ran.
//
// A HostKit is bound to one engine and must only be used from that engine's
// callbacks (or before the fleet starts) — the same single-threaded
// discipline as every other per-host object.
type HostKit struct {
	Eng *sim.Engine
	L   *kernel.Linux
	Rng *rand.Rand

	// Block-layer timer slabs: command and unplug timers live in request
	// structures that are recycled, so their trace identities recur — the
	// same reuse that keeps the paper's timer counts at ~100 per trace.
	idePool    []*jiffies.Timer
	unplugPool []*jiffies.Timer

	// coalesce is the periodic-timer coalescing grid width; 0 = off. See
	// SetCoalesce.
	coalesce sim.Duration
}

// NewHostKit binds a kit to a booted kernel personality. Randomness comes
// from the engine's own deterministic stream.
func NewHostKit(eng *sim.Engine, l *kernel.Linux) *HostKit {
	return &HostKit{Eng: eng, L: l, Rng: eng.Rand()}
}

// Exp returns an exponentially distributed delay with the given mean,
// bounded away from zero.
func (k *HostKit) Exp(mean sim.Duration) sim.Duration {
	d := sim.Duration(k.Rng.ExpFloat64() * float64(mean))
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// Uniform returns a delay in [lo, hi).
func (k *HostKit) Uniform(lo, hi sim.Duration) sim.Duration {
	if hi <= lo {
		return lo
	}
	return lo + sim.Duration(k.Rng.Int63n(int64(hi-lo)))
}

// SetCoalesce sets the coalescing window for the ClassPeriodic timer
// family: every Periodic (re-)arm rounds its expiry up to the next
// multiple of w, so the independent daemons' timers land on shared
// instants and batch into one wakeup — the round_jiffies/deferrable-timer
// remedy the paper's Section 5 argues for, as a run-time knob (the control
// plane's coalescing-window command, internal/control). w <= 0 turns
// coalescing off. Same single-threaded discipline as everything else on
// the kit: call from the host's own callbacks or at a fleet barrier.
func (k *HostKit) SetCoalesce(w sim.Duration) {
	if w < 0 {
		w = 0
	}
	k.coalesce = w
}

// Coalesce returns the active coalescing window (0 = off).
func (k *HostKit) Coalesce() sim.Duration { return k.coalesce }

// armCoalesced arms t to fire after d, rounded up to the coalescing grid
// when one is set. Rounding is up, never down — coalescing may only defer
// a periodic timer (firing early would violate the timeout contract) — and
// applies only when the window is no longer than the delay itself, the
// kernel's slack rule: deferral stretches a cycle by at most one window,
// it never swallows whole periods of a timer finer than the grid.
func (k *HostKit) armCoalesced(t *jiffies.Timer, d sim.Duration) {
	if w := int64(k.coalesce); w > 0 && w <= int64(d) {
		deadline := int64(k.Eng.Now()) + int64(d)
		if r := deadline % w; r != 0 {
			d += sim.Duration(w - r)
		}
	}
	k.L.Base().ModTimeout(t, d)
}

// Periodic installs a self-re-arming kernel timer — the ClassPeriodic
// pattern (page-out timer, work queues). The first arming lands at a random
// phase, reproducing the up-to-2 ms value jitter of Section 3.1. Arms honor
// the kit's coalescing window (SetCoalesce).
func (k *HostKit) Periodic(origin string, period sim.Duration, body func()) *jiffies.Timer {
	return k.periodicNamed(origin, origin+":phase", period, body)
}

// periodicNamed is Periodic with the phase event's name, origin + ":phase",
// passed in, so callers with constant origins pass a constant and the
// boot builds no string.
func (k *HostKit) periodicNamed(origin, phaseName string, period sim.Duration, body func()) *jiffies.Timer {
	p := &periodic{k: k, period: period, body: body}
	k.L.Base().Init(&p.t, origin, 0, p.fire)
	k.Eng.After(k.Uniform(0, period), phaseName, p.phase)
	return &p.t
}

// periodic is one Periodic timer with its period and body, in one
// allocation beside its two bound callbacks.
type periodic struct {
	t      jiffies.Timer
	k      *HostKit
	period sim.Duration
	body   func()
}

// fire is the timer's expiry: the body, then the next arm.
func (p *periodic) fire() {
	if p.body != nil {
		p.body()
	}
	p.k.armCoalesced(&p.t, p.period)
}

// phase is the first arm, at the random phase.
func (p *periodic) phase() { p.k.armCoalesced(&p.t, p.period) }

// SelectLoop runs a daemon's event loop: select with a constant timeout; if
// activityMean > 0, fd activity completes some selects early and the loop
// continues with the written-back remainder — the Figure 4 countdown idiom.
// With activityMean == 0 the select always expires (pure periodic daemon).
func (k *HostKit) SelectLoop(p *kernel.Process, timeout, activityMean sim.Duration) {
	l := &selectLoop{k: k, p: p, timeout: timeout, activityMean: activityMean}
	l.selectedFn = l.selected
	l.issue(timeout)
	if activityMean > 0 {
		l.activityName = p.Name + ":activity"
		l.activityFn = l.activity
		k.Eng.After(k.Exp(activityMean), l.activityName, l.activityFn)
	}
}

// selectLoop is one SelectLoop with its continuations and event name bound
// once, so a cycle allocates nothing.
type selectLoop struct {
	k                     *HostKit
	p                     *kernel.Process
	timeout, activityMean sim.Duration
	activityName          string
	pending               kernel.Pending
	selectedFn            func(kernel.SelectResult)
	activityFn            func()
}

//lint:allocfree one select with the pre-bound continuation
func (l *selectLoop) issue(to sim.Duration) {
	if to <= 0 {
		to = l.timeout
	}
	l.pending = l.p.Select(to, l.selectedFn)
}

//lint:allocfree re-issues the select
func (l *selectLoop) selected(r kernel.SelectResult) {
	if r.TimedOut || r.Remaining == 0 {
		// Deadline reached: handle housekeeping, restart at the
		// programmed constant.
		l.issue(l.timeout)
		return
	}
	// fd activity: service it, re-issue with the remainder.
	l.issue(r.Remaining)
}

//lint:allocfree wakes the select, then one engine event for the next activity
func (l *selectLoop) activity() {
	l.pending.Complete()
	l.k.Eng.After(l.k.Exp(l.activityMean), l.activityName, l.activityFn)
}

// DiskIO models one block-layer request: the 4 ms unplug timer (mostly
// expiring) and the 30 s IDE command timeout (canceled when the command
// completes) — Table 3's 0.004 s and 30 s rows. Timer structs come from
// per-purpose slabs and return there, as the kernel's request structures do.
func (k *HostKit) DiskIO() {
	ide := k.popTimer(&k.idePool, "kernel/ide:command-timeout")
	done := false
	ide.SetCallback(func() { done = true }) // command timeout: request aborts
	k.L.Base().ModTimeout(ide, ideCommandTimeout)
	k.Eng.After(k.Uniform(2*sim.Millisecond, 12*sim.Millisecond), "ide:complete", func() {
		if !done {
			// Completion vs. timeout race is part of the modeled behavior.
			_ = k.L.Base().Del(ide)
		}
		k.idePool = append(k.idePool, ide)
	})

	unplug := k.popTimer(&k.unplugPool, "kernel/block:unplug")
	unplug.SetCallback(func() {
		k.unplugPool = append(k.unplugPool, unplug)
	})
	k.L.Base().ModTimeout(unplug, blockUnplugTimeout)
}

// popTimer takes a recycled timer from a slab, initializing a fresh one on
// first use.
func (k *HostKit) popTimer(pool *[]*jiffies.Timer, origin string) *jiffies.Timer {
	if n := len(*pool); n > 0 {
		t := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return t
	}
	return k.L.KernelTimer(origin, nil)
}

// BootKernelDaemons starts the Table 3 periodic kernel-timer family plus
// write-back (with occasional disk I/O) and the console-blank watchdog.
func (k *HostKit) BootKernelDaemons() {
	b := k.L.Base()
	// Constant origins, so each phase name below is a constant too.
	const (
		workqueueTimer      = "kernel/workqueue:timer"
		workqueueDelayed    = "kernel/workqueue:delayed"
		clocksourceWatchdog = "kernel/hres:clocksource-watchdog"
		usbHcdPoll          = "kernel/usb:hcd-poll"
		e1000Watchdog       = "kernel/e1000:watchdog"
		qdisc               = "kernel/pktsched:qdisc"
		vmstatUpdate        = "kernel/vm:vmstat-update"
		slabReap            = "kernel/mm:slab-reap"
		writeback           = "kernel/mm:writeback"
		pageOut             = "kernel/mm:page-out"
	)
	k.periodicNamed(workqueueTimer, workqueueTimer+":phase", workqueueTimerPeriod, nil)
	k.periodicNamed(workqueueDelayed, workqueueDelayed+":phase", workqueueDelayedPeriod, nil)
	k.periodicNamed(clocksourceWatchdog, clocksourceWatchdog+":phase", clocksourceWatchdogPeriod, nil)
	k.periodicNamed(usbHcdPoll, usbHcdPoll+":phase", usbHcdPollPeriod, nil)
	k.periodicNamed(e1000Watchdog, e1000Watchdog+":phase", e1000WatchdogPeriod, nil)
	k.periodicNamed(qdisc, qdisc+":phase", qdiscPeriod, nil)
	k.periodicNamed(vmstatUpdate, vmstatUpdate+":phase", vmstatUpdatePeriod, nil)
	k.periodicNamed(slabReap, slabReap+":phase", slabReapPeriod, nil)
	// Dirty page write-back occasionally finds work and does disk I/O.
	k.periodicNamed(writeback, writeback+":phase", writebackInterval, func() {
		if k.Rng.Intn(4) == 0 {
			k.DiskIO()
		}
	})
	// Page-out timer.
	k.periodicNamed(pageOut, pageOut+":phase", pageOutInterval, nil)
	// Console blank: a long watchdog; no console input ever arrives in
	// these workloads, so it expires once (blanks) per 10 minutes of trace.
	var blank *jiffies.Timer
	blank = k.L.KernelTimer("kernel/console:blank", func() {
		b.ModTimeout(blank, consoleBlankTimeout)
	})
	b.ModTimeout(blank, consoleBlankTimeout)
}

// BootUserDaemons starts the stock daemons of the paper's idle description:
// init's 5 s child poll plus syslogd, cron, atd, inetd and the portmapper,
// each a pure-expiry select loop on its fixed human-scale timeout.
func (k *HostKit) BootUserDaemons() {
	k.SelectLoop(k.L.NewProcess("init"), initPollTimeout, 0)
	k.SelectLoop(k.L.NewProcess("syslogd"), syslogdPollTimeout, 0)
	k.SelectLoop(k.L.NewProcess("cron"), cronPollTimeout, 0)
	k.SelectLoop(k.L.NewProcess("atd"), atdPollTimeout, 0)
	k.SelectLoop(k.L.NewProcess("inetd"), inetdPollTimeout, 0)
	k.SelectLoop(k.L.NewProcess("portmap"), portmapPollTimeout, 0)
}
