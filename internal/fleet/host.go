// Package fleet simulates a datacenter: many hosts, each a full simulated
// machine with its own event engine, timer subsystem and trace sink,
// exchanging traffic over internal/netsim links. The fleet advances all
// hosts in parallel using conservative-lookahead windows (see StartSession and
// DESIGN.md §"Fleet-scale parallel simulation"); per-host traces are
// byte-identical at any worker count.
package fleet

import (
	"cmp"
	"slices"

	"timerstudy/internal/kernel"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// Message kinds understood by the built-in host models.
const (
	// MsgRequest is a client HTTP request.
	MsgRequest uint8 = iota
	// MsgResponse is the server's reply, carrying the request's ID back.
	MsgResponse
)

// Message is one unit of cross-host traffic. DeliverAt is computed by the
// sender from the frozen fabric (latency + jitter + serialization); the
// triple (DeliverAt, Src, Seq) is unique and totally orders every inbox,
// which is what makes delivery deterministic at any worker count.
type Message struct {
	DeliverAt sim.Time
	Src, Dst  int32
	Seq       uint64 // per-source send counter
	Kind      uint8
	ID        uint64 // model-defined correlation ID (request/response match)
	Size      int32  // wire bytes, drives serialization delay
}

// Model is a per-host behaviour: it boots the host's processes and timers
// and reacts to inbound messages. A Model instance belongs to exactly one
// Host and runs only on that host's engine (single-threaded).
type Model interface {
	Boot(h *Host)
	OnMessage(h *Host, m Message)
}

// Host is one simulated machine in the fleet. Everything hanging off it —
// engine, kernel personality, sink, model state — is owned by the host and
// touched only by the host's own window advance (or the serial barrier
// phase), never by two workers at once.
type Host struct {
	Index int
	Name  string
	Eng   *sim.Engine
	Sink  trace.Sink
	Kern  *kernel.Linux
	Kit   *workloads.HostKit

	fleet *Fleet
	model Model

	// seq numbers outgoing messages; with Src it makes inbox keys unique.
	seq uint64
	// outbox collects messages sent during the current window. Written only
	// by this host's advance (worker-local), drained serially at the
	// barrier.
	outbox []Message
	// staged holds messages routed to this host at the barrier, in serial
	// gather order (by source host index, then send order).
	staged []Message
	// inbox[inboxHead:] is the pending delivery queue, sorted by
	// (DeliverAt, Src, Seq). deliver pops the head; mergeStaged compacts
	// the consumed prefix.
	inbox     []Message
	inboxHead int
	// deliverFn is the single pre-bound delivery closure: every inbound
	// message schedules this same func at its DeliverAt, so delivery costs
	// no per-message allocation. Correctness: the engine fires delivery
	// events in nondecreasing time order and the multiset of scheduled
	// event times equals the multiset of pending DeliverAt values, so the
	// k-th firing always finds its message at the sorted-queue head.
	deliverFn func()
	recvLabel string

	// windowExecuted is the event count of the host's latest AdvanceUntil,
	// written by the worker that advanced the host, read after the barrier.
	windowExecuted int

	// Traffic counters (host-local, summed serially by RunStats).
	Sent, Delivered, Lost uint64

	// Down marks a killed host (see Kill). Set only at session barriers.
	Down bool
}

// Kill freezes the host, modeling a machine power-off: its engine stops
// executing (the pending backlog is retained, frozen in place) and the
// route phase drops inbound messages as Lost. Call only at a session
// barrier — mid-window the workers own host state.
func (h *Host) Kill() {
	h.Down = true
	h.Eng.Stop()
	h.fleet.refresh(h.Index)
}

// Restart brings a killed host back at the given instant — the session's
// current Floor(). The engine clock skips forward over the outage (idle
// time), and the frozen backlog fires late at the restart instant, like a
// machine whose timers expired while it was off. Skipping the clock is
// load-bearing for determinism: a resumed host sending from a lagging
// clock would deliver into other hosts' past, breaking the lookahead
// invariant. Call only at a session barrier.
func (h *Host) Restart(at sim.Time) {
	h.Down = false
	h.Eng.Resume()
	h.Eng.SkipTo(at)
	h.fleet.refresh(h.Index)
}

// Steer hands a directive to the host at a session barrier. Host-level
// directives (DirCoalesce) are handled here; the rest go to the model,
// returning false when it does not implement Steerable or rejects the
// directive. A model's Steer may schedule events, so the host's index
// entry is refreshed afterwards.
func (h *Host) Steer(d Directive) bool {
	defer h.fleet.refresh(h.Index)
	if d.Kind == DirCoalesce {
		if d.Arg < 0 {
			return false
		}
		h.Kit.SetCoalesce(sim.Duration(d.Arg))
		return true
	}
	if s, ok := h.model.(Steerable); ok {
		return s.Steer(h, d)
	}
	return false
}

// Send queues a message to another host. It must be called from within the
// sending host's own engine callbacks, and panics otherwise: the barrier
// routes only the outboxes of hosts that ran in the window, so a message
// sent at a barrier would never leave. The delivery time is computed from
// the frozen fabric: base latency + per-send jitter (host-local rng) +
// serialization at the fabric bandwidth. Returns false when the link drops
// the packet.
//
// Because path latency is never below the fabric's MinLatency, DeliverAt
// lands at or beyond the current window's horizon — which is exactly the
// conservative-lookahead invariant that lets hosts advance in parallel.
//
//lint:allocfree path lookup, rng draws and an append to an outbox that keeps its capacity
func (h *Host) Send(dst int, kind uint8, id uint64, size int) bool {
	if !h.Eng.Running() {
		panic("fleet: Host.Send outside the sending host's engine callbacks")
	}
	f := h.fleet
	cfg := f.fabric.PathFor(h.Name, f.hosts[dst].Name)
	rng := h.Eng.Rand()
	if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
		h.Lost++
		return false
	}
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += sim.Duration(rng.Int63n(int64(cfg.Jitter)))
	}
	if bw := f.fabric.Bandwidth(); bw > 0 && size > 0 {
		delay += sim.Duration(int64(size) * int64(sim.Second) / bw)
	}
	h.seq++
	h.outbox = append(h.outbox, Message{
		DeliverAt: h.Eng.Now() + sim.Time(delay),
		Src:       int32(h.Index),
		Dst:       int32(dst),
		Seq:       h.seq,
		Kind:      kind,
		ID:        id,
		Size:      int32(size),
	})
	h.Sent++
	return true
}

// deliver pops the head of the sorted pending queue and hands it to the
// model. It is the body of deliverFn and runs as an engine event at the
// message's DeliverAt.
//
//lint:allocfree queue pop plus the model's OnMessage
func (h *Host) deliver() {
	m := h.inbox[h.inboxHead]
	h.inboxHead++
	h.Delivered++
	h.model.OnMessage(h, m)
}

// mergeStaged runs in the serial barrier phase: it schedules one delivery
// event per staged message, appends them to the pending queue, and restores
// the queue's (DeliverAt, Src, Seq) order. Scheduling uses Engine.At
// directly — every DeliverAt is at or beyond the window horizon, and the
// host's clock stopped at its last executed event strictly before the
// horizon, so At never sees a past time.
//
//lint:allocfree one pre-bound delivery event per message, then an in-place merge
func (h *Host) mergeStaged() {
	if len(h.staged) == 0 {
		return
	}
	for i := range h.staged {
		h.Eng.At(h.staged[i].DeliverAt, h.recvLabel, h.deliverFn)
	}
	// Compact the consumed prefix before growing the queue.
	if h.inboxHead > 0 {
		n := copy(h.inbox, h.inbox[h.inboxHead:])
		h.inbox = h.inbox[:n]
		h.inboxHead = 0
	}
	h.inbox = append(h.inbox, h.staged...)
	h.staged = h.staged[:0]
	sortMessages(h.inbox[h.inboxHead:])
}

// sortMessages restores (DeliverAt, Src, Seq) order. The key is unique —
// Seq never repeats within a source — so the sort's stability is
// irrelevant and the result is independent of input order.
func sortMessages(ms []Message) {
	slices.SortFunc(ms, func(a, b Message) int {
		switch {
		case a.DeliverAt != b.DeliverAt:
			return cmp.Compare(a.DeliverAt, b.DeliverAt)
		case a.Src != b.Src:
			return cmp.Compare(a.Src, b.Src)
		default:
			return cmp.Compare(a.Seq, b.Seq)
		}
	})
}
