package workloads

import (
	"math/rand"

	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
)

// httperf models the load generator of both webserver experiments:
// total requests spread evenly over the trace, at most parallel
// outstanding, one request per connection, each guarded by a per-state
// watchdog. It runs on its own untraced machine.
type httperf struct {
	eng      *sim.Engine
	rng      *rand.Rand
	stack    *netsim.Stack
	server   string
	total    int
	parallel int
	stateTO  sim.Duration
	interval sim.Duration
	issued   int
	active   int
	tickFn   func()
	free     []*httperfReq
}

func newHttperf(eng *sim.Engine, rng *rand.Rand, stack *netsim.Stack, server string, total, parallel int, stateTO, duration sim.Duration) *httperf {
	h := &httperf{
		eng: eng, rng: rng, stack: stack, server: server,
		total: total, parallel: parallel, stateTO: stateTO,
		interval: duration / sim.Duration(total),
	}
	h.tickFn = h.tick
	return h
}

func (h *httperf) start() {
	h.eng.After(h.interval, "httperf:pace", h.tickFn)
}

func (h *httperf) tick() {
	if h.issued >= h.total {
		return
	}
	if h.active < h.parallel {
		h.issued++
		h.active++
		h.request()
	}
	h.eng.After(h.interval, "httperf:pace", h.tickFn)
}

// httperfReq is one request's state. Its callbacks are bound once; it is
// recycled once its watchdog has fired or been canceled and its connection
// has failed to open or been closed.
type httperfReq struct {
	h        *httperf
	done     bool
	watchdog sim.Event
	watching bool // the watchdog has neither fired nor been canceled
	open     bool // the connection has not failed or been closed

	timeoutFn   func()
	connectedFn func(*netsim.Conn, error)
	responseFn  func(*netsim.Conn, int, any)
}

func (h *httperf) request() {
	var r *httperfReq
	if n := len(h.free); n > 0 {
		r = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		r = &httperfReq{h: h}
		r.timeoutFn = r.timeout
		r.connectedFn = r.connected
		r.responseFn = r.response
	}
	r.done, r.watching, r.open = false, true, true
	// Client-side state watchdog (untraced: it lives on the load
	// generator).
	r.watchdog = h.eng.After(h.stateTO, "httperf:timeout", r.timeoutFn)
	h.stack.Connect(h.server, 80, r.connectedFn)
}

// finish ends the request once, whichever of response and watchdog comes
// first.
func (r *httperfReq) finish() {
	if !r.done {
		r.done = true
		r.h.active--
	}
}

func (r *httperfReq) timeout() {
	r.watching = false
	r.finish()
	r.settle()
}

func (r *httperfReq) connected(c *netsim.Conn, err error) {
	if err != nil {
		r.open = false
		r.finish()
		r.settle()
		return
	}
	c.OnMessage = r.responseFn
	c.Send(200+r.h.rng.Intn(300), "GET /", nil)
}

func (r *httperfReq) response(c *netsim.Conn, _ int, _ any) {
	// Response vs. watchdog race is the modeled behavior.
	if r.h.eng.Cancel(r.watchdog) {
		r.watching = false
	}
	c.Close()
	r.finish()
	c.Release()
	r.open = false
	r.settle()
}

// settle recycles the request once nothing can call back into it.
func (r *httperfReq) settle() {
	if !r.watching && !r.open {
		r.h.free = append(r.h.free, r)
	}
}
