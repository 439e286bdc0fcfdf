package workloads

import (
	"fmt"
	"math/rand"

	"timerstudy/internal/ktimer"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// vistaSystem is a booted Vista Ultimate box: the NT timer machinery, the
// 26 background service processes of the paper's idle description, the
// network stack (no TCP keepalive, per the paper's observation), and LAN
// chatter.
type vistaSystem struct {
	cfg   Config
	eng   *sim.Engine
	sink  trace.Sink
	tr    *trace.Buffer // nil when cfg.Sink streams the records away
	k     *ktimer.Kernel
	net   *netsim.Network
	stack *netsim.Stack
	rng   *rand.Rand

	nextPID int32
}

func newVistaSystem(cfg Config) *vistaSystem {
	eng := sim.NewEngine(cfg.Seed)
	sink, buf := cfg.traceSink()
	sys := &vistaSystem{cfg: cfg, eng: eng, sink: sink, tr: buf, k: ktimer.NewKernel(eng, sink), rng: eng.Rand(), nextPID: 3}
	sys.net = netsim.NewNetwork(eng)
	sys.stack = netsim.NewStack(sys.net, "vistabox", &netsim.VistaFacility{Kernel: sys.k})
	sys.bootServices()
	sys.bootKernelDrivers()
	sys.bootLAN()
	return sys
}

func (s *vistaSystem) pid() int32 {
	s.nextPID += 4
	return s.nextPID
}

func (s *vistaSystem) exp(mean sim.Duration) sim.Duration {
	d := sim.Duration(s.rng.ExpFloat64() * float64(mean))
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

func (s *vistaSystem) uniform(lo, hi sim.Duration) sim.Duration {
	if hi <= lo {
		return lo
	}
	return lo + sim.Duration(s.rng.Int63n(int64(hi-lo)))
}

// waitLoop runs a service thread that waits on an event with a constant
// timeout in a loop. Most waits time out (polling); a fraction are
// satisfied by simulated activity — the expiry-dominated Vista behaviour of
// Table 2.
func (s *vistaSystem) waitLoop(th *ktimer.Thread, timeout sim.Duration, satisfyProb float64) {
	obj := ktimer.NewEvent()
	var loop func(ktimer.WaitResult)
	loop = func(ktimer.WaitResult) {
		obj.Reset()
		th.WaitFor(timeout, loop, obj)
		if satisfyProb > 0 && s.rng.Float64() < satisfyProb {
			s.eng.After(s.uniform(0, timeout), th.Name+":signal", func() {
				s.k.Signal(obj)
			})
		}
	}
	loop(ktimer.WaitTimeout)
}

// vistaIdleWaitValues are the Figure 7 idle/webserver constants background
// services poll at: round human values plus the clock-granularity oddities
// (0.1156 s = 100 ms + one 15.625 ms tick, 0.5156 s likewise).
var vistaIdleWaitValues = []sim.Duration{
	sim.Duration(115625 * int64(sim.Microsecond)), // 0.1156
	200 * sim.Millisecond,
	250 * sim.Millisecond,
	500 * sim.Millisecond,
	sim.Duration(515625 * int64(sim.Microsecond)), // 0.5156
	sim.Second,
	sim.Second,
	2 * sim.Second,
	2 * sim.Second,
	3 * sim.Second,
	3 * sim.Second,
}

// bootServices starts the 26 background processes of the idle Vista
// desktop. Each runs one or two wait-polling threads on a constant from the
// Figure 7 family, plus the occasional threadpool housekeeping timer.
func (s *vistaSystem) bootServices() {
	names := []string{
		"csrss.exe", "wininit.exe", "services.exe", "lsass.exe", "winlogon.exe",
		"svchost-1.exe", "svchost-2.exe", "svchost-3.exe", "svchost-4.exe", "svchost-5.exe",
		"svchost-6.exe", "svchost-7.exe", "svchost-8.exe", "svchost-9.exe", "svchost-10.exe",
		"svchost-11.exe", "svchost-12.exe", "spoolsv.exe", "SearchIndexer.exe", "audiodg.exe",
		"dwm.exe", "taskeng.exe", "wmpnetwk.exe", "SLsvc.exe", "sidebar.exe", "traysnd.exe",
	}
	for i, name := range names {
		pid := s.pid()
		th := s.k.NewThread(pid, name)
		v := vistaIdleWaitValues[(i*5)%len(vistaIdleWaitValues)]
		// csrss, the desktop compositor and the audio tray app poll fast —
		// the paper names them as the >2 timers/s sources on the idle box.
		if name == "csrss.exe" || name == "audiodg.exe" || name == "traysnd.exe" || name == "dwm.exe" {
			v = 400 * sim.Millisecond
		} else if v < sim.Second {
			// Most services poll at the slow end; the sub-second constants
			// appear through a minority of threads.
			if i%4 != 0 {
				v = vistaIdleWaitValues[5+(i%6)]
			}
		}
		s.waitLoop(th, v, 0.07)
		if i%2 == 0 {
			th2 := s.k.NewThread(pid, name+"!w2")
			s.waitLoop(th2, vistaIdleWaitValues[7+((i*3)%4)], 0.05)
		}
		// Housekeeping threadpool timer with a coalescing window.
		if i%3 == 0 {
			pool := s.k.NewPool(pid, name)
			tp := pool.NewTimer(name+"/housekeeping", func() {})
			tp.Set(s.uniform(5*sim.Second, 30*sim.Second), vistaHousekeepingPeriod, vistaHousekeepingWindow)
		}
		// NT API one-shot timers for deferred work (lazy handle closing):
		// the Vista "deferred" pattern of Section 4.1.1.
		if i%4 == 2 {
			s.deferredCloser(pid, name)
		}
	}
}

// deferredCloser models the lazy-close idiom of Section 4.1.1: a 5 s NT
// timer deferred (re-set) on every registry access, expiring after a quiet
// spell to close the handles, then restarting with the next access.
func (s *vistaSystem) deferredCloser(pid int32, name string) {
	origin := name + "/lazy-close"
	var t *ktimer.KTimer
	var access func()
	access = func() {
		if t == nil {
			t = s.k.NtSetTimer(pid, origin, lazyCloseTimeout, func() { t = nil })
		} else {
			// Defer: re-set the same handle's timer.
			s.k.SetTimerIn(t, lazyCloseTimeout, 0)
		}
		// Accesses cluster in bursts with quiet gaps longer than 5 s.
		var gap sim.Duration
		if s.rng.Float64() < 0.7 {
			gap = s.exp(2 * sim.Second)
		} else {
			gap = 6*sim.Second + s.exp(20*sim.Second)
		}
		s.eng.After(gap, origin, access)
	}
	s.eng.After(s.exp(5*sim.Second), origin, access)
}

// bootKernelDrivers models the NT kernel/driver timers: DPC-based one-shots
// re-armed on expiry (storage, NDIS, USB polling), giving the kernel line
// of Figure 1 its baseline.
func (s *vistaSystem) bootKernelDrivers() {
	drivers := []struct {
		origin string
		period sim.Duration
	}{
		{"system/ndis:poll", 100 * sim.Millisecond},
		{"system/storport:io-watchdog", 250 * sim.Millisecond},
		{"system/usbhub:poll", 125 * sim.Millisecond},
		{"system/hdaudio:dpc", 50 * sim.Millisecond},
		{"system/tcpip:wheel-tick", 100 * sim.Millisecond},
		{"system/ataport:watchdog", sim.Second},
		{"system/cng:entropy", 2 * sim.Second},
		{"system/mm:working-set", sim.Second},
	}
	for _, d := range drivers {
		d := d
		t := s.k.NewTimer(d.origin, 0, false, nil)
		var rearm func()
		rearm = func() { s.k.SetTimerIn(t, d.period, 0) }
		t.SetDPC(rearm)
		s.eng.After(s.uniform(0, d.period), d.origin+":phase", rearm)
	}
}

func (s *vistaSystem) bootLAN() {
	for _, h := range []string{"dc1", "fileserver", "printer", "router"} {
		h := h
		s.net.Attach(h, func(netsim.Packet) {})
		var chatter func()
		chatter = func() {
			s.net.Broadcast(h, "netbios-chatter")
			s.eng.After(s.exp(8*sim.Second), "lan:chatter", chatter)
		}
		s.eng.After(s.exp(8*sim.Second), "lan:chatter", chatter)
	}
}

func (s *vistaSystem) finish(name string) *Result {
	s.eng.Run(sim.Time(s.cfg.Duration))
	return &Result{
		Name: name, OS: "vista", Trace: s.tr, Counters: sinkCounters(s.sink),
		Duration: s.cfg.Duration, Stats: s.eng.Stats(),
	}
}

// VistaIdle is the idle Vista desktop: a logged-in console, no foreground
// applications, 26 background processes.
func VistaIdle(cfg Config) *Result {
	sys := newVistaSystem(cfg)
	return sys.finish(Idle)
}

// zeroWaitSpinner issues bursts of zero-timeout waits — the non-blocking
// polling that puts the 0 bar in Figure 7.
func (s *vistaSystem) zeroWaitSpinner(th *ktimer.Thread, burst int, mean sim.Duration) {
	var spin func()
	spin = func() {
		n := 1 + s.rng.Intn(burst)
		for i := 0; i < n; i++ {
			th.WaitFor(0, func(ktimer.WaitResult) {})
		}
		s.eng.After(s.exp(mean), th.Name+":spin", spin)
	}
	spin()
}

// shortWaitLoop polls with a sub-clock-granularity timeout: every wait is
// delivered at the next 15.6 ms interrupt, hundreds of percent late — the
// Vista Firefox pathology of Figures 8-10.
func (s *vistaSystem) shortWaitLoop(th *ktimer.Thread, timeout sim.Duration) {
	obj := ktimer.NewEvent()
	var loop func(ktimer.WaitResult)
	loop = func(ktimer.WaitResult) {
		obj.Reset()
		th.WaitFor(timeout, loop, obj)
	}
	loop(ktimer.WaitTimeout)
}

// VistaFirefox is the browser workload on Vista: the background system plus
// Firefox with Flash, spinning on zero and sub-millisecond waits, GUI
// WM_TIMERs, and afd selects for the network.
func VistaFirefox(cfg Config) *Result {
	sys := newVistaSystem(cfg)
	pid := sys.pid()
	// Event-loop threads with very short timeouts.
	for i, to := range []sim.Duration{sim.Millisecond, sim.Millisecond, 3 * sim.Millisecond, 10 * sim.Millisecond} {
		th := sys.k.NewThread(pid, fmt.Sprintf("firefox.exe!ev%d", i))
		sys.shortWaitLoop(th, to)
	}
	// The message pump polls aggressively while Flash animates.
	pump := sys.k.NewThread(pid, "firefox.exe!pump")
	sys.zeroWaitSpinner(pump, 18, 25*sim.Millisecond)
	// GUI timers: Flash frame timer and a 50 ms UI tick.
	q := sys.k.NewMessageQueue(pid, "firefox.exe")
	q.SetTimer(1, flashFrameTick, func() {})
	q.SetTimer(2, vistaUITick, func() {})
	// Network: afd selects guarding socket reads from the page's host.
	webHost := "myspace.com"
	remoteK := ktimer.NewKernel(sys.eng, trace.NewBuffer(0))
	srvStack := netsim.NewStack(sys.net, webHost, &netsim.VistaFacility{Kernel: remoteK})
	srvStack.Listen(80, func(c *netsim.Conn) {
		c.OnMessage = func(c *netsim.Conn, size int, _ any) {
			c.Send(2000+sys.rng.Intn(30000), "page", nil)
		}
	})
	sys.net.SetPath("vistabox", webHost, netsim.PathConfig{
		Latency: 20 * sim.Millisecond, Jitter: 10 * sim.Millisecond, Loss: 0.005,
	})
	var fetch func()
	fetch = func() {
		cancel := sys.k.AfdSelect(pid, "firefox.exe", fetchGuardTimeout, func(bool) {})
		sys.stack.Connect(webHost, 80, func(c *netsim.Conn, err error) {
			if err != nil {
				cancel()
				return
			}
			c.OnMessage = func(c *netsim.Conn, size int, _ any) {
				cancel()
				c.Close()
			}
			c.Send(500, "GET /", nil)
		})
		sys.eng.After(sys.exp(2*sim.Second), "firefox:fetch", fetch)
	}
	sys.eng.After(appStartDelay, "firefox:start", fetch)
	return sys.finish(Firefox)
}

// VistaSkype is the call workload on Vista: audio polling near the 20 ms
// frame cadence, the 115.6/515.6 ms oddities, and zero-wait spinning.
func VistaSkype(cfg Config) *Result {
	sys := newVistaSystem(cfg)
	pid := sys.pid()
	audio := sys.k.NewThread(pid, "skype.exe!audio")
	sys.shortWaitLoop(audio, voiceFrameInterval)
	ui := sys.k.NewThread(pid, "skype.exe!ui")
	sys.waitLoop(ui, skypeOddWaitShort, 0.3)
	ui2 := sys.k.NewThread(pid, "skype.exe!ui2")
	sys.waitLoop(ui2, skypeOddWaitLong, 0.2)
	spin := sys.k.NewThread(pid, "skype.exe!engine")
	sys.zeroWaitSpinner(spin, 8, 30*sim.Millisecond)
	// GUI blink/meter timers.
	q := sys.k.NewMessageQueue(pid, "skype.exe")
	q.SetTimer(1, skypeBlinkTick, func() {})
	q.SetTimer(2, skypeMeterTick, func() {})
	// Voice datagrams to the peer (no kernel TCP timers).
	peer := "skypepeer"
	sys.net.Attach(peer, func(netsim.Packet) {})
	sys.net.SetPath("vistabox", peer, netsim.PathConfig{
		Latency: 35 * sim.Millisecond, Jitter: 15 * sim.Millisecond, Loss: 0.01,
	})
	var stream func()
	stream = func() {
		sys.net.Send(netsim.Packet{From: "vistabox", To: peer, Size: 320, Payload: "frame"})
		sys.eng.After(voiceFrameInterval, "skype:frame", stream)
	}
	sys.eng.After(appStartDelay, "skype:start", stream)
	return sys.finish(Skype)
}

// VistaWebserver is the loaded Vista web server: the paper used a 100 Mb
// switch between server and client for this experiment. The Vista TCP stack
// allocates fresh KTIMERs per connection and arms no keepalive.
func VistaWebserver(cfg Config) *Result {
	sys := newVistaSystem(cfg)
	pid := sys.pid()
	// Worker threads poll for connections.
	for i := 0; i < 4; i++ {
		th := sys.k.NewThread(pid, fmt.Sprintf("httpd.exe!w%d", i))
		sys.waitLoop(th, httpdWorkerPoll, 0.4)
	}
	sys.stack.Listen(80, func(c *netsim.Conn) {
		// Per-connection guard via afd select, Windows style.
		cancel := sys.k.AfdSelect(pid, "httpd.exe", httpdConnWatchdog, func(timedOut bool) {
			if timedOut {
				c.Close()
			}
		})
		c.OnMessage = func(c *netsim.Conn, size int, _ any) {
			cancel()
			sys.eng.After(sys.uniform(sim.Millisecond, 15*sim.Millisecond), "httpd:handle", func() {
				c.Send(2000+sys.rng.Intn(14000), "response", nil)
			})
		}
	})
	// 100 Mb switch: ~10× the latency, ~1/10 the bandwidth of the Linux
	// experiment's gigabit LAN.
	clientK := ktimer.NewKernel(sys.eng, trace.NewBuffer(0))
	clientStack := netsim.NewStack(sys.net, "loadgen", &netsim.VistaFacility{Kernel: clientK})
	sys.net.SetPath("vistabox", "loadgen", netsim.PathConfig{
		Latency: 300 * sim.Microsecond, Jitter: 100 * sim.Microsecond,
	})
	sys.net.Bandwidth = 12 << 20
	total := int(int64(sys.cfg.Duration) * 30000 / int64(30*sim.Minute))
	if total < 1 {
		total = 1
	}
	h := &vistaHttperf{sys: sys, stack: clientStack, total: total, parallel: 10, stateTO: 5 * sim.Second}
	h.start()
	return sys.finish(Webserver)
}

type vistaHttperf struct {
	sys      *vistaSystem
	stack    *netsim.Stack
	total    int
	parallel int
	stateTO  sim.Duration
	issued   int
	active   int
}

func (h *vistaHttperf) start() {
	interval := h.sys.cfg.Duration / sim.Duration(h.total)
	var tick func()
	tick = func() {
		if h.issued >= h.total {
			return
		}
		if h.active < h.parallel {
			h.issued++
			h.active++
			h.request()
		}
		h.sys.eng.After(interval, "httperf:pace", tick)
	}
	h.sys.eng.After(interval, "httperf:pace", tick)
}

func (h *vistaHttperf) request() {
	sys := h.sys
	done := false
	finish := func() {
		if !done {
			done = true
			h.active--
		}
	}
	watchdog := sys.eng.After(h.stateTO, "httperf:timeout", finish)
	h.stack.Connect("vistabox", 80, func(c *netsim.Conn, err error) {
		if err != nil {
			finish()
			return
		}
		c.OnMessage = func(c *netsim.Conn, size int, _ any) {
			// Response vs. watchdog race is the modeled behavior.
			_ = sys.eng.Cancel(watchdog)
			c.Close()
			finish()
		}
		c.Send(200+sys.rng.Intn(300), "GET /", nil)
	})
}
