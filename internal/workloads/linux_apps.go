package workloads

import (
	"fmt"

	"timerstudy/internal/kernel"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
)

// pollCycler runs an application thread that repeatedly polls file
// descriptors with a constant short timeout, the dominant Firefox pattern
// (Table 3 rows at 0.004/0.008/0.012 s): fd activity cancels some polls at a
// uniformly distributed fraction of the timeout; the rest expire.
func (s *linuxSystem) pollCycler(p *kernel.Process, timeout sim.Duration, cancelProb float64, thinkMean sim.Duration) {
	c := &pollCycler{
		s: s, th: p.NewThread(), timeout: timeout, cancelProb: cancelProb, thinkMean: thinkMean,
		thinkName: p.Name + ":think", fdName: p.Name + ":fd",
	}
	c.cycleFn = c.cycle
	c.polledFn = c.polled
	c.cycle()
}

// pollCycler is one pollCycler loop with its continuations and event names
// bound once, so a cycle allocates nothing.
type pollCycler struct {
	s                  *linuxSystem
	th                 *kernel.Thread
	timeout, thinkMean sim.Duration
	cancelProb         float64
	thinkName, fdName  string
	cycleFn            func()
	polledFn           func(kernel.SelectResult)
}

//lint:allocfree one poll, and maybe its fd activity, with pre-bound continuations
func (c *pollCycler) cycle() {
	w := c.th.Poll(c.timeout, c.polledFn)
	if c.s.rng.Float64() < c.cancelProb {
		// Activity arrives somewhere within the timeout window, so
		// cancels spread evenly over 0-100 % (the Figure 10 cluster).
		w.CompleteAfter(c.s.uniform(0, c.timeout), c.fdName)
	}
}

//lint:allocfree one engine event for the think pause
func (c *pollCycler) polled(kernel.SelectResult) {
	c.s.eng.After(c.s.exp(c.thinkMean), c.thinkName, c.cycleFn)
}

// flashLoop is the soft-real-time render loop of the Flash plugin: one very
// short poll per frame, value hopping between 1, 2 and 3 jiffies — the
// unclassifiable short timers of Section 4.1.1.
func (s *linuxSystem) flashLoop(p *kernel.Process) {
	f := &flashLoop{
		s: s, th: p.NewThread(),
		values:    []sim.Duration{4 * sim.Millisecond, 8 * sim.Millisecond, 12 * sim.Millisecond},
		readyName: p.Name + ":frame-ready",
	}
	f.polledFn = f.polled
	f.frame()
}

// flashLoop is one flashLoop with its continuation and event name bound
// once.
type flashLoop struct {
	s         *linuxSystem
	th        *kernel.Thread
	values    []sim.Duration
	readyName string
	polledFn  func(kernel.SelectResult)
}

//lint:allocfree one poll, and maybe its frame-ready activity, with the pre-bound continuation
func (f *flashLoop) frame() {
	to := f.values[f.s.rng.Intn(len(f.values))]
	w := f.th.Poll(to, f.polledFn)
	// Frame-ready events cancel most polls partway through.
	if f.s.rng.Float64() < 0.6 {
		w.CompleteAfter(f.s.uniform(0, to), f.readyName)
	}
}

//lint:allocfree the next frame
func (f *flashLoop) polled(kernel.SelectResult) { f.frame() }

// fetchPage opens HTTP connections from the browser box to a web host and
// performs transfers, exercising the kernel TCP timers.
func (s *linuxSystem) fetchPage(server string, conns, requests int, every sim.Duration) {
	for i := 0; i < conns; i++ {
		i := i
		s.eng.After(s.uniform(0, sim.Second), "fetch:start", func() {
			s.stack.Connect(server, 80, func(c *netsim.Conn, err error) {
				if err != nil {
					return
				}
				c.OnMessage = func(*netsim.Conn, int, any) {}
				left := requests
				var next func()
				next = func() {
					if left == 0 {
						return
					}
					left--
					c.Send(400+s.rng.Intn(1200), fmt.Sprintf("GET /%d", i), func(error) {
						s.eng.After(s.exp(every), "fetch:next", next)
					})
				}
				next()
			})
		})
	}
}

// LinuxFirefox is the browser workload: the idle system plus Firefox
// rendering a Flash- and JavaScript-heavy page. Flash animation keeps the X
// server busy, so X's countdown cancels become frequent.
func LinuxFirefox(cfg Config) *Result {
	sys := newLinuxSystem(cfg)
	sys.startX(80 * sim.Millisecond) // animation traffic keeps X hot
	ff := sys.l.NewProcess("firefox")
	// Several event-loop threads polling fds at the three signature values.
	// Fd activity cancels most polls (Table 1: the Firefox trace cancels
	// far more than it expires).
	sys.pollCycler(ff, firefoxPollShort, 0.85, 3*sim.Millisecond)
	sys.pollCycler(ff, firefoxPollMid, 0.8, 5*sim.Millisecond)
	sys.pollCycler(ff, firefoxPollLong, 0.78, 6*sim.Millisecond)
	// Two Flash plugin instances animating.
	sys.flashLoop(ff)
	sys.flashLoop(ff)
	// The page phones home periodically (myspace.com with Flash+JS).
	webHost := "myspace.com"
	srvStack := netsim.NewStack(sys.net, webHost, &netsim.LinuxFacility{Base: sys.remoteBase()})
	srvStack.Listen(80, func(c *netsim.Conn) {
		c.OnMessage = func(c *netsim.Conn, size int, _ any) {
			c.Send(2000+sys.rng.Intn(30000), "page", nil)
		}
	})
	sys.net.SetPath("testbox", webHost, netsim.PathConfig{
		Latency: 20 * sim.Millisecond, Jitter: 10 * sim.Millisecond, Loss: 0.005,
	})
	sys.fetchPage(webHost, 4, 1<<30, pageFetchMean)
	return sys.finish(Firefox)
}

// LinuxSkype is the VoIP workload: a call in progress. The audio pipeline
// polls on short adaptive timeouts around the 20 ms frame cadence, the UI
// thread uses the 0.5 s / 0.4999 s constants, and the engine spins on
// non-blocking polls (the zero-timeout spike of Figure 6).
func LinuxSkype(cfg Config) *Result {
	sys := newLinuxSystem(cfg)
	sys.startX(800 * sim.Millisecond)
	sk := sys.l.NewProcess("skype")

	// Voice peer: frames flow as plain datagrams (no kernel TCP timers —
	// the paper's Skype trace is overwhelmingly user-side). The peer
	// streams one frame every 20 ms, jittered by the WAN path.
	peer := "skypepeer"
	sys.net.Attach(peer, func(netsim.Packet) {})
	sys.net.SetPath("testbox", peer, netsim.PathConfig{
		Latency: 35 * sim.Millisecond, Jitter: 15 * sim.Millisecond, Loss: 0.01,
	})
	var stream func()
	stream = func() {
		sys.net.Send(netsim.Packet{From: peer, To: "testbox", Size: 320, Payload: "frame"})
		sys.eng.After(voiceFrameInterval, "skypepeer:frame", stream)
	}
	sys.eng.After(appStartDelay, "skypepeer:start", stream)

	// The audio thread: after each frame, poll for the next with an
	// adaptive timeout tracking observed inter-arrival jitter — a genuine
	// control loop (rare in the traces) producing the sub-1 s adaptive
	// cluster of Figure 9. Arrivals cancel the poll; losses let it expire.
	jitterEst := 20 * sim.Millisecond
	lastArrival := sim.Time(0)
	audioTh := sk.NewThread()
	var pendingAudio kernel.Pending
	var audio func()
	audioPolled := func(kernel.SelectResult) { audio() }
	audio = func() {
		// Send our own frame out (fire and forget).
		sys.net.Send(netsim.Packet{From: "testbox", To: peer, Size: 320, Payload: "frame"})
		to := 20*sim.Millisecond + 2*jitterEst + sim.Duration(sys.rng.Int63n(int64(4*sim.Millisecond)))
		pendingAudio = audioTh.Poll(to, audioPolled)
	}
	sys.stack.OnRaw = func(p netsim.Packet) {
		if p.Payload != "frame" {
			return
		}
		now := sys.eng.Now()
		if lastArrival != 0 {
			iat := now.Sub(lastArrival)
			dev := iat - 20*sim.Millisecond
			if dev < 0 {
				dev = -dev
			}
			jitterEst += (dev - jitterEst) / 8
			if jitterEst < sim.Millisecond {
				jitterEst = sim.Millisecond
			}
		}
		lastArrival = now
		pendingAudio.Complete()
	}
	sys.eng.After(appStartDelay, "skype:start", audio)

	// The UI thread: 0.5 s and 0.4999 s selects (two different call
	// sites, as the trace shows).
	sys.pollCycler(sk, skypeUIPollTimeout, 0.3, 50*sim.Millisecond)
	halfTh := sk.NewThread()
	var halfish func(kernel.SelectResult)
	halfish = func(kernel.SelectResult) {
		halfTh.Select(skypeUIPollOddTimeout, halfish)
	}
	halfish(kernel.SelectResult{})

	// The engine's non-blocking polls: bursts of poll(0).
	var spin func()
	spin = func() {
		n := 1 + sys.rng.Intn(4)
		for i := 0; i < n; i++ {
			sk.Poll(0, func(kernel.SelectResult) {})
		}
		sys.eng.After(sys.exp(60*sim.Millisecond), "skype:spin", spin)
	}
	spin()

	// Signaling connection to a supernode: a long-lived TCP connection
	// with occasional keepalive-ish chatter (kernel socket timers).
	super := "supernode"
	superStack := netsim.NewStack(sys.net, super, &netsim.LinuxFacility{Base: sys.remoteBase()})
	superStack.Listen(443, func(c *netsim.Conn) {
		c.OnMessage = func(c *netsim.Conn, size int, _ any) { c.Send(80, "ok", nil) }
	})
	sys.net.SetPath("testbox", super, netsim.PathConfig{
		Latency: 50 * sim.Millisecond, Jitter: 30 * sim.Millisecond, Loss: 0.02,
	})
	sys.eng.After(skypeSignalDelay, "skype:signal", func() {
		sys.stack.Connect(super, 443, func(c *netsim.Conn, err error) {
			if err != nil {
				return
			}
			c.OnMessage = func(*netsim.Conn, int, any) {}
			var ping func()
			ping = func() {
				c.Send(120, "ping", nil)
				sys.eng.After(sys.exp(20*sim.Second), "skype:ping", ping)
			}
			ping()
		})
	})
	return sys.finish(Skype)
}

// LinuxWebserver is the loaded Apache box driven by an httperf client from
// another machine: 30000 requests, 10 concurrent, 5 s per-state timeouts on
// the client side. X is not running (as in the paper). Only the server
// machine is traced.
func LinuxWebserver(cfg Config) *Result {
	sys := newLinuxSystem(cfg)
	apache := sys.l.NewProcess("apache2")

	// Apache master event loop: 1 s select, partly canceled by accept
	// activity (Table 3 calls it a Timeout).
	sys.selectLoop(apache, apacheSelectTimeout, 3*sim.Second)

	// Journal commit: armed on dirty data, canceled 80-100 % in (forced
	// commit), re-armed by the next write — the Figure 11 cluster.
	journalDirty := false
	journal := sys.l.KernelTimer("kernel/jbd:commit", func() {
		journalDirty = false
		sys.diskIO()
	})
	logWrite := func() {
		if !journalDirty {
			journalDirty = true
			sys.l.Base().ModTimeout(journal, journalCommitInterval)
			// Most commits are forced early by fsync-ish activity.
			if sys.rng.Float64() < 0.8 {
				after := sys.uniform(4*sim.Second, 5*sim.Second)
				sys.eng.After(after, "jbd:force", func() {
					if journalDirty {
						journalDirty = false
						// Forced commit vs. timer expiry race is modeled.
						_ = sys.l.Base().Del(journal)
						sys.diskIO()
					}
				})
			}
		}
	}

	// The server socket: each request is handled by a prefork worker
	// (reused, so watchdog timer identities recur) that guards the
	// connection with Apache's 15 s poll watchdog.
	srv := &apacheServer{sys: sys, proc: apache, logWrite: logWrite}
	// Prefork: StartServers=10 workers exist (and arm their idle
	// watchdogs) from boot, like the stock Apache configuration.
	for i := 0; i < 10; i++ {
		w := srv.newWorker()
		w.idle.Settime(apacheWorkerIdleKill, 0)
		srv.workers = append(srv.workers, w)
	}
	sys.stack.Listen(80, srv.accept)

	// httperf on a separate machine (its own untraced timer base): the
	// paper's 30000 requests over 30 minutes = 16.7 req/s, scaled to the
	// configured duration.
	total := int(int64(sys.cfg.Duration) * 30000 / int64(30*sim.Minute))
	if total < 1 {
		total = 1
	}
	client := netsim.NewStack(sys.net, "loadgen", &netsim.LinuxFacility{Base: newUntracedBase(sys)})
	newHttperf(sys.eng, sys.rng, client, "testbox", total, 10, httperfStateTimeout, sys.cfg.Duration).start()
	return sys.finish(Webserver)
}

// apacheWorker is one prefork worker thread.
type apacheWorker struct {
	th *kernel.Thread
	// idle is the worker's self-kill watchdog, deferred by 30 s every
	// time the worker handles a request — the webserver watchdogs of
	// Figure 2 ("Apache uses watchdogs to timeout connections").
	idle *kernel.PosixTimer
}

// apacheServer is the prefork worker pool and the freelist of
// per-connection handler state.
type apacheServer struct {
	sys      *linuxSystem
	proc     *kernel.Process
	logWrite func()
	workers  []*apacheWorker
	rr       int
	free     []*apacheConn
}

func (s *apacheServer) newWorker() *apacheWorker {
	w := &apacheWorker{th: s.proc.NewThread()}
	w.idle = s.proc.TimerCreate("worker-idle-watchdog", nil)
	return w
}

// getWorker takes an idle worker, round-robin over the pool so every
// worker stays busy enough to keep deferring its watchdog, or forks one.
func (s *apacheServer) getWorker() *apacheWorker {
	if n := len(s.workers); n > 0 {
		s.rr++
		i := s.rr % n
		w := s.workers[i]
		s.workers = append(s.workers[:i], s.workers[i+1:]...)
		return w
	}
	return s.newWorker()
}

// accept hands a new connection to a worker, which guards it with its
// poll watchdog.
func (s *apacheServer) accept(c *netsim.Conn) {
	w := s.getWorker()
	w.idle.Settime(apacheWorkerIdleKill, 0) // defer the self-kill watchdog
	ac := s.newConn()
	ac.c, ac.w, ac.polling = c, w, true
	ac.guard = w.th.Poll(apacheConnWatchdog, ac.pollFn)
	c.OnMessage = ac.messageFn
	c.OnClose = ac.closeFn
}

// apacheConn is one accepted connection's handler state. Its callbacks are
// bound once; the struct and its connection are recycled once the
// connection has closed, the guard poll has returned and no response is
// still being prepared.
type apacheConn struct {
	s        *apacheServer
	c        *netsim.Conn
	w        *apacheWorker
	guard    kernel.Pending
	polling  bool
	handling int

	pollFn    func(kernel.SelectResult)
	messageFn func(*netsim.Conn, int, any)
	handleFn  func()
	closeFn   func(error)
}

func (s *apacheServer) newConn() *apacheConn {
	if n := len(s.free); n > 0 {
		ac := s.free[n-1]
		s.free = s.free[:n-1]
		return ac
	}
	ac := &apacheConn{s: s}
	ac.pollFn = ac.polled
	ac.messageFn = ac.message
	ac.handleFn = ac.handle
	ac.closeFn = func(error) { ac.settle() }
	return ac
}

// polled is the guard poll's return: the worker goes back to the pool and
// a timed-out connection is closed.
func (ac *apacheConn) polled(r kernel.SelectResult) {
	ac.s.workers = append(ac.s.workers, ac.w)
	ac.polling = false
	if r.TimedOut {
		ac.c.Close()
	}
	ac.settle()
}

// message handles the request: the poll returns early and the response
// follows after the think time.
func (ac *apacheConn) message(*netsim.Conn, int, any) {
	ac.guard.Complete()
	// Process and respond: think time plus a log write.
	ac.handling++
	sys := ac.s.sys
	sys.eng.After(sys.uniform(sim.Millisecond, 15*sim.Millisecond), "apache:handle", ac.handleFn)
}

func (ac *apacheConn) handle() {
	ac.handling--
	ac.s.logWrite()
	ac.c.Send(2000+ac.s.sys.rng.Intn(14000), "response", nil)
	ac.settle()
}

// settle recycles the handler state and its connection once nothing can
// call back into either.
func (ac *apacheConn) settle() {
	if ac.polling || ac.handling > 0 || ac.c.Established() {
		return
	}
	ac.c.Release()
	ac.c, ac.w, ac.guard = nil, nil, kernel.Pending{}
	ac.s.free = append(ac.s.free, ac)
}
