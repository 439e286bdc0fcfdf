package fleet

import (
	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
)

// The built-in datacenter models: desktop hosts run closed-loop client
// threads against webserver hosts. Each request arms the paper's timer
// quartet — the client's 30 s request timeout and 200 ms TCP retransmit,
// the server's 15 s request watchdog, and (sometimes) the block layer's
// 4 ms unplug + 30 s IDE pair — so cumulative timer volume scales with
// hosts × request rate, exactly the "Table 3 × 1000" the fleet exists to
// measure. On top of that every host boots the full single-machine daemon
// set (workloads.HostKit), so the background timer population matches the
// paper's idle trace per box.

// webserverModel is a loaded web server: accept-loop select, per-request
// watchdog, service delay, occasional disk I/O.
type webserverModel struct {
	serviceMean sim.Duration
	watchPool   []*jiffies.Timer
	nreq        uint64
}

func newWebserverModel(serviceMean sim.Duration) *webserverModel {
	return &webserverModel{serviceMean: serviceMean}
}

func (w *webserverModel) Boot(h *Host) {
	h.Kit.BootKernelDaemons()
	h.Kit.BootUserDaemons()
	// Apache's housekeeping select with fd activity from real requests'
	// side effects modeled as a mean arrival.
	h.Kit.SelectLoop(h.Kern.NewProcess("apache"), serverSelectTimeout, 3*serverSelectTimeout)
}

func (w *webserverModel) OnMessage(h *Host, m Message) {
	if m.Kind != MsgRequest {
		return
	}
	w.nreq++
	// Request watchdog: armed per accepted request, canceled when the
	// response goes out. Timer structs are slab-recycled like the request
	// structures holding them.
	var wd *jiffies.Timer
	if n := len(w.watchPool); n > 0 {
		wd = w.watchPool[n-1]
		w.watchPool = w.watchPool[:n-1]
	} else {
		wd = h.Kern.KernelTimer("kernel/tcp:request-watchdog", nil)
	}
	expired := false
	wd.SetCallback(func() { expired = true }) // request aborted
	h.Kern.Base().ModTimeout(wd, serverRequestWatchdog)

	if w.nreq%serverDiskEvery == 0 {
		h.Kit.DiskIO()
	}
	src, id := int(m.Src), m.ID
	h.Eng.After(h.Kit.Exp(w.serviceMean), "httpd:service", func() {
		if !expired {
			_ = h.Kern.Base().Del(wd)
			h.Send(src, MsgResponse, id, responseSize)
		}
		w.watchPool = append(w.watchPool, wd)
	})
}

// client is one desktop request loop: a thread that thinks, sends a
// request, and blocks in select on the 30 s timeout with a 200 ms
// retransmit timer running underneath.
type client struct {
	th      *kernel.Thread
	pending *kernel.Pending
	retrans *jiffies.Timer
	reqID   uint64
	dst     int
	tries   int
	waiting bool
	sentAt  sim.Time // first send of the current request (RTT sampling)
}

// desktopModel drives clients against the webserver index range
// [0, webservers).
type desktopModel struct {
	webservers int
	threads    int
	thinkMean  sim.Duration
	clients    []*client
	inflight   map[uint64]*client
	nextID     uint64

	// Steering state (Steerable, see steer.go). All of it is plain host-
	// local data mutated only at session barriers or on the host's own
	// engine, so steered runs replay deterministically.
	spikeDiv   int64    // think-time divisor while spiking (>1 = spike on)
	spikeUntil sim.Time // spike expiry in virtual time
	adaptive   bool     // request-timeout policy (PolicyAdaptive)
	est        netsim.RTOEstimator
}

func newDesktopModel(webservers, threads int, thinkMean sim.Duration) *desktopModel {
	return &desktopModel{
		webservers: webservers,
		threads:    threads,
		thinkMean:  thinkMean,
		inflight:   map[uint64]*client{},
	}
}

func (d *desktopModel) Boot(h *Host) {
	h.Kit.BootKernelDaemons()
	h.Kit.BootUserDaemons()
	p := h.Kern.NewProcess("browser")
	for i := 0; i < d.threads; i++ {
		c := &client{th: p.NewThread()}
		c.retrans = h.Kern.KernelTimer("kernel/tcp:retransmit", func() {
			d.retransmit(h, c)
		})
		d.clients = append(d.clients, c)
		d.think(h, c, d.thinkMean)
	}
}

// think schedules the next request after an exponential pause. While a
// DirSpike is active the pause shrinks by the spike factor, multiplying
// the request rate.
func (d *desktopModel) think(h *Host, c *client, mean sim.Duration) {
	if d.spikeDiv > 1 && h.Eng.Now() < d.spikeUntil {
		if mean /= sim.Duration(d.spikeDiv); mean <= 0 {
			mean = 1
		}
	}
	h.Eng.After(h.Kit.Exp(mean), "browser:think", func() { d.request(h, c) })
}

func (d *desktopModel) request(h *Host, c *client) {
	if d.webservers == 0 {
		return
	}
	d.nextID++
	c.reqID = d.nextID
	c.dst = h.Eng.Rand().Intn(d.webservers)
	c.tries = 0
	c.waiting = true
	c.sentAt = h.Eng.Now()
	d.inflight[c.reqID] = c
	h.Send(c.dst, MsgRequest, c.reqID, requestSize)
	h.Kern.Base().ModTimeout(c.retrans, clientRetransmitTimeout)
	// The titular 30 seconds: armed on every request, nearly always
	// canceled by the response long before it could fire. Under
	// PolicyAdaptive the deadline tracks the RTT estimator instead.
	c.pending = c.th.Select(d.requestTimeout(), func(r kernel.SelectResult) {
		mean := d.thinkMean
		if r.TimedOut {
			// Deadline reached with no response: tear down and back off.
			delete(d.inflight, c.reqID)
			c.waiting = false
			_ = h.Kern.Base().Del(c.retrans)
			mean += clientGiveUpThink
		}
		d.think(h, c, mean)
	})
}

// retransmit re-sends the outstanding request (packet or response lost, or
// server slow) and re-arms, up to the retry budget.
func (d *desktopModel) retransmit(h *Host, c *client) {
	if !c.waiting {
		return
	}
	if c.tries++; c.tries > clientMaxRetries {
		return // give up; the 30 s select deadline will fire
	}
	h.Send(c.dst, MsgRequest, c.reqID, requestSize)
	h.Kern.Base().ModTimeout(c.retrans, clientRetransmitTimeout)
}

func (d *desktopModel) OnMessage(h *Host, m Message) {
	if m.Kind != MsgResponse {
		return
	}
	c, ok := d.inflight[m.ID]
	if !ok {
		return // response to a request we already gave up on (or a dup)
	}
	delete(d.inflight, m.ID)
	c.waiting = false
	if c.tries == 0 {
		// Karn's rule: only never-retransmitted requests yield RTT
		// samples (a retransmitted response is ambiguous about which
		// send it answers).
		d.observeRTT(h.Eng.Now().Sub(c.sentAt))
	}
	_ = h.Kern.Base().Del(c.retrans)
	// Wakes the select early: OpCancel|FlagSatisfied on the 30 s timer,
	// then the select callback continues the loop.
	c.pending.Complete()
}

// requestTimeout picks the per-request select deadline under the active
// policy. PolicyFixed (and a cold estimator) arms the paper's full 30 s;
// PolicyAdaptive arms the RFC 6298 RTO, srtt + 4·rttvar, clamped to
// [adaptiveTimeoutMin, clientRequestTimeout]. That range lies inside
// netsim's own [MinRTO, MaxRTO] clamp, so the estimator's clamp never
// decides the result.
func (d *desktopModel) requestTimeout() sim.Duration {
	if !d.adaptive || d.est.SRTT() == 0 {
		return clientRequestTimeout
	}
	rto := d.est.RTO()
	if rto < adaptiveTimeoutMin {
		rto = adaptiveTimeoutMin
	}
	if rto > clientRequestTimeout {
		rto = clientRequestTimeout
	}
	return rto
}

// observeRTT feeds one round-trip sample into the Jacobson estimator
// (RFC 6298 integer form). Only runs while the adaptive policy is on, so
// the fixed-policy hot path stays untouched.
func (d *desktopModel) observeRTT(rtt sim.Duration) {
	if !d.adaptive || rtt <= 0 {
		return
	}
	d.est.Observe(rtt)
}

// Steer implements Steerable: desktops accept load spikes and timeout-
// policy switches.
func (d *desktopModel) Steer(h *Host, dir Directive) bool {
	switch dir.Kind {
	case DirSpike:
		if dir.Arg < 1 || dir.Dur <= 0 {
			return false
		}
		d.spikeDiv = dir.Arg
		d.spikeUntil = h.Eng.Now() + sim.Time(dir.Dur)
		return true
	case DirPolicy:
		switch dir.Arg {
		case PolicyFixed:
			d.adaptive = false
		case PolicyAdaptive:
			// Cold-start the estimator: samples only accumulate while
			// adaptive, so a re-enable starts fresh.
			d.adaptive = true
			d.est = netsim.RTOEstimator{}
		default:
			return false
		}
		return true
	}
	return false
}
