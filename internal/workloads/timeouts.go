package workloads

import "timerstudy/internal/sim"

// This file is the package's timeout registry: every fixed duration a
// workload arms a timer with lives here, with the provenance the paper's
// Section 5.2 asks for. The magictimeout analyzer rejects timeout literals
// anywhere else in the package and requires a comment on every constant
// below. These values are measurements, not tuning knobs: each one was
// observed in the traces of the source study (tables and figures cited per
// constant), so changing one means modeling a different system.

// Linux kernel housekeeping (Table 3's periodic family).
const (
	// ideCommandTimeout: Table 3's 30 s IDE command abort, canceled on I/O completion.
	ideCommandTimeout = 30 * sim.Second
	// blockUnplugTimeout: Table 3's 0.004 s block-layer unplug timer (1 jiffy at HZ=250).
	blockUnplugTimeout = 4 * sim.Millisecond
	// workqueueTimerPeriod: kernel work-queue flush tick, 1 s in the traced kernel.
	workqueueTimerPeriod = sim.Second
	// workqueueDelayedPeriod: delayed-work variant of the work-queue tick, 2 s.
	workqueueDelayedPeriod = 2 * sim.Second
	// clocksourceWatchdogPeriod: hres clocksource sanity check, 0.5 s.
	clocksourceWatchdogPeriod = 500 * sim.Millisecond
	// usbHcdPollPeriod: USB host-controller root-hub poll, 248 ms (62 jiffies) in the traced kernel.
	usbHcdPollPeriod = 248 * sim.Millisecond
	// e1000WatchdogPeriod: e1000 NIC link watchdog, 2 s.
	e1000WatchdogPeriod = 2 * sim.Second
	// qdiscPeriod: packet-scheduler housekeeping, 5 s.
	qdiscPeriod = 5 * sim.Second
	// vmstatUpdatePeriod: per-CPU VM statistics fold, 1 s.
	vmstatUpdatePeriod = sim.Second
	// slabReapPeriod: slab-cache reaper, 2 s.
	slabReapPeriod = 2 * sim.Second
	// writebackInterval: dirty-page write-back kupdate tick, 5 s.
	writebackInterval = 5 * sim.Second
	// pageOutInterval: Table 3's 10 s page-out timer (ClassPeriodic example).
	pageOutInterval = 10 * sim.Second
	// consoleBlankTimeout: console blanking watchdog, 10 min in the traced kernel.
	consoleBlankTimeout = 600 * sim.Second
)

// Linux daemons and X session (the idle desktop of Section 4.1).
const (
	// initPollTimeout: init's 5 s child-poll select (Table 3).
	initPollTimeout = 5 * sim.Second
	// syslogdPollTimeout: syslogd's 30 s select, the paper's title constant.
	syslogdPollTimeout = 30 * sim.Second
	// cronPollTimeout: cron wakes every minute to scan crontabs.
	cronPollTimeout = 60 * sim.Second
	// atdPollTimeout: atd checks its job queue every minute.
	atdPollTimeout = 60 * sim.Second
	// inetdPollTimeout: inetd's 2 min housekeeping select.
	inetdPollTimeout = 120 * sim.Second
	// portmapPollTimeout: portmapper's 5 min select, the longest idle daemon constant.
	portmapPollTimeout = 300 * sim.Second
	// xorgScreensaverTimeout: Xorg's 600 s screensaver countdown (the Figure 4 countdown idiom).
	xorgScreensaverTimeout = 600 * sim.Second
	// icewmHousekeepingTimeout: icewm's 60 s housekeeping deadline, counted down by clock redraws.
	icewmHousekeepingTimeout = 60 * sim.Second
	// lanSeedDelay: one-shot delay before seeding the ARP cache via the router; value arbitrary, pre-trace.
	lanSeedDelay = sim.Second
)

// Linux applications (Firefox, Skype, Apache/httperf — Tables 1 and 3).
const (
	// firefoxPollShort: Firefox event-loop poll, 1 jiffy (Table 3's 0.004 s row).
	firefoxPollShort = 4 * sim.Millisecond
	// firefoxPollMid: Firefox event-loop poll, 2 jiffies (Table 3's 0.008 s row).
	firefoxPollMid = 8 * sim.Millisecond
	// firefoxPollLong: Firefox event-loop poll, 3 jiffies (Table 3's 0.012 s row).
	firefoxPollLong = 12 * sim.Millisecond
	// pageFetchMean: mean think time between page phone-home fetches; models the Flash+JS page.
	pageFetchMean = 2 * sim.Second
	// voiceFrameInterval: the 20 ms VoIP audio frame cadence both Skype traces center on.
	voiceFrameInterval = 20 * sim.Millisecond
	// appStartDelay: one-shot delay before an application's first network activity; pre-trace warmup.
	appStartDelay = sim.Second
	// skypeUIPollTimeout: Skype UI thread's 0.5 s select (Figure 6).
	skypeUIPollTimeout = 500 * sim.Millisecond
	// skypeUIPollOddTimeout: Skype's second UI constant, 0.4999 s — a distinct call site in the trace (Figure 6).
	skypeUIPollOddTimeout = 499900 * sim.Microsecond
	// skypeSignalDelay: one-shot delay before connecting to the supernode; pre-trace warmup.
	skypeSignalDelay = 2 * sim.Second
	// apacheSelectTimeout: Apache master event loop's 1 s select (Table 3 Timeout row).
	apacheSelectTimeout = sim.Second
	// journalCommitInterval: jbd's 5 s journal commit timer, mostly forced early (Figure 11).
	journalCommitInterval = 5 * sim.Second
	// apacheWorkerIdleKill: prefork worker self-kill watchdog, deferred 30 s per request (Figure 2).
	apacheWorkerIdleKill = 30 * sim.Second
	// apacheConnWatchdog: per-connection 15 s poll guard on the request path.
	apacheConnWatchdog = 15 * sim.Second
	// httperfStateTimeout: the load generator's --timeout 5 per-state watchdog from the paper's setup (both webserver experiments).
	httperfStateTimeout = 5 * sim.Second
)

// Vista desktop and applications (Figure 1, Section 4.1.1).
const (
	// browserPumpTimeout: IE message-pump wait, tens of sets per second on the Figure 1 desktop.
	browserPumpTimeout = 30 * sim.Millisecond
	// browserGUITick: IE GUI timer at 100 ms.
	browserGUITick = 100 * sim.Millisecond
	// outlookUpcallGuard: Outlook's 5 s per-upcall timeout assertion (Section 2.2.1's idiom).
	outlookUpcallGuard = 5 * sim.Second
	// outlookBurstGap: spacing of upcall batches during mail-sync bursts; sub-frame, keeps the burst at thousands/s.
	outlookBurstGap = 2 * sim.Millisecond
	// outlookHousekeepingTimeout: Outlook background thread's 250 ms wait loop.
	outlookHousekeepingTimeout = 250 * sim.Millisecond
	// vistaHousekeepingPeriod: service threadpool housekeeping period (Section 4.1.1's coalescable class).
	vistaHousekeepingPeriod = 10 * sim.Second
	// vistaHousekeepingWindow: tolerable-delay window passed with the period; Vista's coalescing API in action.
	vistaHousekeepingWindow = sim.Second
	// lazyCloseTimeout: the 5 s deferred lazy-handle-close NT timer of Section 4.1.1.
	lazyCloseTimeout = 5 * sim.Second
	// flashFrameTick: Flash frame GUI timer on Vista, 10 ms.
	flashFrameTick = 10 * sim.Millisecond
	// vistaUITick: Firefox's 50 ms UI tick GUI timer.
	vistaUITick = 50 * sim.Millisecond
	// fetchGuardTimeout: afd select guarding each page fetch, 2 s.
	fetchGuardTimeout = 2 * sim.Second
	// skypeOddWaitShort: Skype's 115.625 ms wait — an irregular value straight from the Vista trace.
	skypeOddWaitShort = 115625 * sim.Microsecond
	// skypeOddWaitLong: Skype's 515.625 ms companion oddity from the same trace.
	skypeOddWaitLong = 515625 * sim.Microsecond
	// skypeBlinkTick: Skype GUI blink timer, 100 ms.
	skypeBlinkTick = 100 * sim.Millisecond
	// skypeMeterTick: Skype level-meter GUI timer, 500 ms.
	skypeMeterTick = 500 * sim.Millisecond
	// httpdWorkerPoll: Vista web-server worker's 1 s connection poll.
	httpdWorkerPoll = sim.Second
	// httpdConnWatchdog: per-connection afd select guard, 15 s, matching the Linux experiment.
	httpdConnWatchdog = 15 * sim.Second
)

// Trace-length constants (not armed timeouts, but kept here for the same
// provenance discipline).
const (
	// DesktopTraceDuration: the Figure 1 busy-desktop trace runs 90 seconds
	// in the paper, regardless of the 30-minute length of the other traces.
	DesktopTraceDuration = 90 * sim.Second
)
