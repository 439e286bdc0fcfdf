package workloads

import (
	"math/rand"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// linuxSystem is a booted Debian-ish box: kernel housekeeping timers, the
// network stack with ARP, LAN background chatter, and the stock daemons of
// the paper's idle description (syslogd, inetd, atd, cron, portmapper,
// gettys).
type linuxSystem struct {
	cfg   Config
	eng   *sim.Engine
	sink  trace.Sink
	tr    *trace.Buffer // nil when cfg.Sink streams the records away
	l     *kernel.Linux
	net   *netsim.Network
	stack *netsim.Stack
	rng   *rand.Rand
	kit   *HostKit
}

func newLinuxSystem(cfg Config) *linuxSystem {
	eng := sim.NewEngine(cfg.Seed)
	sink, buf := cfg.traceSink()
	l := kernel.NewLinux(eng, sink)
	sys := &linuxSystem{cfg: cfg, eng: eng, sink: sink, tr: buf, l: l, rng: eng.Rand()}
	sys.kit = &HostKit{Eng: eng, L: l, Rng: sys.rng}
	sys.net = netsim.NewNetwork(eng)
	sys.stack = netsim.NewStack(sys.net, "testbox", &netsim.LinuxFacility{Base: l.Base()})
	sys.stack.KeepaliveEnabled = true
	sys.kit.BootKernelDaemons()
	sys.kit.BootUserDaemons()
	sys.bootLAN()
	return sys
}

// The modeling idioms below live in HostKit (hostparts.go) so the fleet's
// per-host models share them; linuxSystem keeps its historical method names
// as delegates.

func (s *linuxSystem) exp(mean sim.Duration) sim.Duration       { return s.kit.Exp(mean) }
func (s *linuxSystem) uniform(lo, hi sim.Duration) sim.Duration { return s.kit.Uniform(lo, hi) }

func (s *linuxSystem) periodic(origin string, period sim.Duration, body func()) *jiffies.Timer {
	return s.kit.Periodic(origin, period, body)
}

func (s *linuxSystem) diskIO() { s.kit.DiskIO() }

func (s *linuxSystem) selectLoop(p *kernel.Process, timeout, activityMean sim.Duration) {
	s.kit.SelectLoop(p, timeout, activityMean)
}

// bootLAN attaches phantom LAN neighbours whose broadcast chatter keeps the
// ARP cache churning (the random 5 s cancels of Figure 8).
func (s *linuxSystem) bootLAN() {
	neighbours := []string{"lanhost1", "lanhost2", "lanhost3", "printer", "router"}
	for _, h := range neighbours {
		h := h
		s.net.Attach(h, func(netsim.Packet) {})
		var chatter func()
		chatter = func() {
			s.net.Broadcast(h, "arp-chatter")
			s.eng.After(s.exp(6*sim.Second), "lan:chatter", chatter)
		}
		s.eng.After(s.exp(6*sim.Second), "lan:chatter", chatter)
	}
	// Seed our neighbour entries by talking to the router once.
	s.eng.After(lanSeedDelay, "lan:seed", func() {
		s.stack.Connect("router", 7, func(c *netsim.Conn, err error) {
			if c != nil {
				c.Close()
			}
		})
	})
}

// startX starts the X server and window manager with their select
// countdowns: Xorg counts down from its 600 s screensaver deadline, icewm
// from a 60 s housekeeping deadline with a 1 s clock redraw generating
// activity for both.
func (s *linuxSystem) startX(xActivityMean sim.Duration) {
	xorg := s.l.NewProcess("Xorg")
	icewm := s.l.NewProcess("icewm")
	s.selectLoop(xorg, xorgScreensaverTimeout, xActivityMean)
	s.selectLoop(icewm, icewmHousekeepingTimeout, 4*xActivityMean)
}

// finish runs the engine for the configured duration and packages results.
func (s *linuxSystem) finish(name string) *Result {
	s.eng.Run(sim.Time(s.cfg.Duration))
	return &Result{
		Name: name, OS: "linux", Trace: s.tr, Counters: sinkCounters(s.sink),
		Duration: s.cfg.Duration, Stats: s.eng.Stats(),
	}
}

// newUntracedBase creates a jiffies base whose records go nowhere: the timer
// subsystem of a machine that participates in the experiment but is not the
// system under test (remote web hosts, the httperf load generator).
func newUntracedBase(s *linuxSystem) *jiffies.Base {
	return jiffies.NewBase(s.eng, trace.NewBuffer(0))
}

// remoteBase is shorthand used by the application workloads.
func (s *linuxSystem) remoteBase() *jiffies.Base { return newUntracedBase(s) }

// LinuxIdle is the paper's idle desktop: booted system, X and icewm running,
// network connected, nobody home.
func LinuxIdle(cfg Config) *Result {
	sys := newLinuxSystem(cfg)
	sys.startX(60 * sim.Millisecond)
	return sys.finish(Idle)
}
