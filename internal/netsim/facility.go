// Package netsim is the simulated network substrate: a lossy, latency-bearing
// LAN/WAN, an ARP neighbour subsystem, and a TCP-lite transport whose timer
// behaviour follows the real stacks the paper traces — adaptive Jacobson
// retransmission timeouts with exponential backoff (Section 5.1's canonical
// example of adaptivity), the 40 ms delayed-ACK timer, 3 s connect/socket
// timeouts, the 7200 s keepalive, and the ARP 2/4/5/8-second timer family of
// Table 3.
//
// The transport arms its timers through the Facility interface, so the same
// stack runs over the Linux jiffies subsystem (statically allocated, reused
// timer structs) and the Vista KTIMER subsystem (freshly allocated objects),
// reproducing the allocation-behaviour difference the paper highlights.
package netsim

import (
	"timerstudy/internal/jiffies"
	"timerstudy/internal/ktimer"
	"timerstudy/internal/sim"
)

// Handle is an armed-or-idle timer owned by the transport.
type Handle interface {
	// Arm (re)sets the timer to fire fn after d.
	Arm(d sim.Duration)
	// Stop cancels; reports whether it was pending.
	Stop() bool
	// Pending reports the armed state.
	Pending() bool
	// Release returns the timer to its owner when the connection dies. On
	// Linux the struct goes back to the slab and its identity is reused by
	// the next connection (which is why the paper sees only ~100 distinct
	// timer addresses in a 30000-connection webserver trace); on Vista the
	// freshly allocated KTIMER is simply dropped.
	Release()
}

// Facility creates kernel timers for the transport, hiding which OS
// personality provides them.
type Facility interface {
	// NewTimer returns a timer with the given origin label and callback.
	NewTimer(origin string, fn func()) Handle
	// Now returns current virtual time.
	Now() sim.Time
}

// --- Linux adapter ---

// LinuxFacility arms transport timers on a jiffies base. Timer structs are
// embedded in slab-allocated protocol objects (sockets, neighbour entries),
// so released structs are recycled and their addresses — hence trace
// identities — recur, Linux behaviour.
type LinuxFacility struct {
	// Base is the standard timer base to arm on.
	Base *jiffies.Base

	// slab holds released handles per origin, reused LIFO. A handle owns
	// its timer struct for life, so reusing the handle is reusing the
	// struct, exactly as the kernel's slab does.
	slab map[string][]*linuxHandle
}

type linuxHandle struct {
	f *LinuxFacility
	t jiffies.Timer
}

// NewTimer implements Facility.
func (f *LinuxFacility) NewTimer(origin string, fn func()) Handle {
	if free := f.slab[origin]; len(free) > 0 {
		h := free[len(free)-1]
		f.slab[origin] = free[:len(free)-1]
		h.t.SetCallback(fn)
		return h
	}
	h := &linuxHandle{f: f}
	f.Base.Init(&h.t, origin, 0, fn)
	return h
}

// Now implements Facility.
func (f *LinuxFacility) Now() sim.Time { return f.Base.Now() }

func (h *linuxHandle) Arm(d sim.Duration) { h.f.Base.ModTimeout(&h.t, d) }
func (h *linuxHandle) Stop() bool         { return h.f.Base.Del(&h.t) }
func (h *linuxHandle) Pending() bool      { return h.t.Pending() }

func (h *linuxHandle) Release() {
	if h.t.Pending() {
		_ = h.f.Base.Del(&h.t)
	}
	if h.f.slab == nil {
		h.f.slab = make(map[string][]*linuxHandle)
	}
	h.f.slab[h.t.Origin] = append(h.f.slab[h.t.Origin], h)
}

// --- Vista adapter ---

// VistaFacility arms transport timers as KTIMER objects. Vista's re-architected
// TCP/IP stack uses per-CPU timing wheels internally, but at the KTIMER
// boundary each protocol timer is a dynamically allocated object: every
// Handle gets a fresh KTIMER identity, so identities are never reused —
// Vista behaviour as the paper describes it. Only the Go objects recycle:
// a released handle whose DPC cannot still run is renewed (Kernel.RenewTimer,
// a fresh ID) by a later NewTimer, which is invisible in the trace.
type VistaFacility struct {
	// Kernel is the NT timer machinery to arm on.
	Kernel *ktimer.Kernel

	free []*vistaHandle
}

type vistaHandle struct {
	f  *VistaFacility
	t  *ktimer.KTimer
	fn func()
	// due counts the DPCs still to come: an Arm of an idle timer adds
	// one, a Stop that catches the timer pending or a DPC that runs takes
	// one away. Due but not pending means the timer expired and its DPC
	// is still queued.
	due int
}

// NewTimer implements Facility.
func (f *VistaFacility) NewTimer(origin string, fn func()) Handle {
	var h *vistaHandle
	if n := len(f.free); n > 0 {
		h = f.free[n-1]
		f.free = f.free[:n-1]
		f.Kernel.RenewTimer(h.t, origin, 0, false)
	} else {
		// The KTIMER's DPC is bound once and kept across renewals.
		h = &vistaHandle{f: f}
		h.t = f.Kernel.NewTimer(origin, 0, false, h.expired)
	}
	h.fn = fn
	return h
}

// Now implements Facility.
func (f *VistaFacility) Now() sim.Time { return f.Kernel.Now() }

func (h *vistaHandle) Arm(d sim.Duration) {
	if !h.t.Pending() {
		h.due++
	}
	h.f.Kernel.SetTimerIn(h.t, d, 0)
}

func (h *vistaHandle) Stop() bool {
	active := h.f.Kernel.CancelTimer(h.t)
	if active {
		h.due--
	}
	return active
}

func (h *vistaHandle) Pending() bool { return h.t.Pending() }

func (h *vistaHandle) expired() {
	h.due--
	h.fn()
}

func (h *vistaHandle) Release() {
	if h.t.Pending() {
		_ = h.f.Kernel.CancelTimer(h.t)
		h.due--
	}
	// The KTIMER is dropped. A handle whose DPC is still queued keeps its
	// callback and is never reused; any other goes back for renewal.
	if h.due == 0 {
		h.f.free = append(h.f.free, h)
	}
}
