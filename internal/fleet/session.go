package fleet

import (
	"fmt"

	"timerstudy/internal/sim"
)

// Session runs the fleet one window per Step call, so a caller (the
// control plane, internal/control) can act between windows; the algorithm
// is described on StartSession. At every return from Step the fleet sits at a globally
// consistent boundary — all events strictly before Floor() have executed,
// the serial route phase has run, and no worker is touching host state —
// which is the only point where cross-host mutation (steering commands,
// kill/restart, keyframe capture) is deterministic: the boundary sequence
// depends only on the topology and the fabric, never on worker count or
// wall-clock arrival of commands.
//
// Lifecycle: StartSession → Step until false (or until the caller decides
// to stop) → Finish (drain remaining windows, park clocks at end) or Close
// (tear down mid-run, for checkpoint-then-exit). StartSession(end,
// workers).Finish() is the one-shot run. A fleet supports one active
// session at a time.
type Session struct {
	f       *Fleet
	end     sim.Time
	workers int
	stats   RunStats

	lookahead sim.Duration
	bounded   bool

	// start is the next window's start instant — the virtual-time floor:
	// every event strictly before it has executed on every live host.
	start    sim.Time
	done     bool
	finished bool
}

// StartSession prepares a run of the whole fleet through virtual time
// [0, end] on the given number of workers. It spins up the worker pool
// (workers > 1); the pool lives until Finish or Close. Per-host traces are
// byte-identical for any workers value.
//
// The algorithm is conservative-lookahead parallel discrete-event
// simulation: with L = the fabric's minimum link latency, every message
// sent at time s is delivered at s+L or later, so all events strictly
// before now+L are causally independent across hosts. Each Step therefore
// advances every host with an event due before the window horizon on the
// worker pool, barriers, routes the accumulated cross-host messages
// serially, and returns — one barrier per window, not per event (see
// DESIGN.md for why). Hosts with nothing due sit the window out: the
// fleet's next-event index, refreshed for every host here, says which.
//
// When L is zero (a zero-latency link exists) the fleet degenerates to
// deterministic lock-step by timestamp: each Step runs exactly the global
// minimum pending instant on every host that has it. When the fabric
// permits no cross-host traffic at all, the first Step runs each host to
// the end independently.
func (f *Fleet) StartSession(end sim.Time, workers int) *Session {
	if workers < 1 {
		workers = 1
	}
	if f.inSession {
		panic("fleet: a session is already active")
	}
	f.inSession = true
	for i := range f.hosts {
		f.refresh(i)
	}
	s := &Session{f: f, end: end, workers: workers}
	s.lookahead, s.bounded = f.fabric.MinLatency()
	s.stats.Lookahead, s.stats.Bounded = s.lookahead, s.bounded
	if workers > 1 {
		// Workers range over a local copy: the f.jobs field is cleared at
		// teardown, and a field read in the loop would race with it.
		jobs := make(chan func(), workers)
		f.jobs = jobs
		for w := 0; w < workers; w++ {
			go func() {
				for job := range jobs {
					job()
				}
			}()
		}
	}
	return s
}

// Step advances the fleet through exactly one window (one advance+route
// round) and reports whether more windows remain. Unbounded fabrics
// complete in a single Step (there are no barriers to steer at),
// zero-lookahead fabrics step one global timestamp, and the normal mode
// steps one lookahead window — including the idle-window jump, which
// counts as a window.
func (s *Session) Step() bool {
	if s.done {
		return false
	}
	f := s.f
	switch {
	case !s.bounded:
		// No cross-host traffic possible: fully independent hosts.
		s.advance(s.end + 1)
		s.start = s.end + 1
		s.done = true
	case s.lookahead == 0:
		// Degenerate lock-step: one global timestamp per round. An event
		// indexed before the floor fires late, in the floor's round, so
		// the floor never moves back.
		host, t, ok := f.minNextAt()
		if ok {
			s.checkFloor(host, t, s.start, "the lock-step floor")
			t = max(t, s.start)
		}
		if !ok || t > s.end {
			s.done = true
			break
		}
		s.advance(t + 1)
		f.route()
		s.start = t + 1
	default:
		if s.start > s.end {
			s.done = true
			break
		}
		horizon := s.end + 1
		if h := s.start + sim.Time(s.lookahead); h > s.start && h < horizon {
			horizon = h
		}
		executed := s.advance(horizon)
		moved := f.route()
		if executed == 0 && moved == 0 {
			// Idle window: jump to the next event anywhere in the fleet
			// instead of spinning one empty window per lookahead. Every
			// host due before the horizon was just advanced and refreshed,
			// so the jump can only go forward.
			host, t, ok := f.minNextAt()
			if !ok || t > s.end {
				s.done = true
				break
			}
			s.checkFloor(host, t, horizon, "the idle window's horizon")
			s.start = t
			break
		}
		s.start = horizon
	}
	return !s.done
}

// checkFloor panics when the next-event index puts host's next event at t,
// before floor, and the host's engine does not confirm it: the entry is
// stale (a missed refresh), and stepping to it would step the same empty
// window forever. An entry before the floor that the engine confirms is
// real, and its event fires late, in the window at the floor: a restarted
// host's frozen backlog keeps its pre-kill stamps, and a directive applied
// at a barrier schedules from the host's own clock, which lags the floor
// on a host that sat windows out.
func (s *Session) checkFloor(host int, t, floor sim.Time, what string) {
	if t >= floor {
		return
	}
	h := s.f.hosts[host]
	at, ok := h.Eng.NextAt()
	if ok && at == t && !h.Eng.Stopped() {
		return
	}
	panic(fmt.Sprintf("fleet: host %s indexed at %d, before %s %d, but its engine's next event is %d (pending=%t, stopped=%t): stale next-event index entry",
		h.Name, t, what, floor, at, ok, h.Eng.Stopped()))
}

// advance runs one window's advance up to horizon, counts it, and returns
// the events it executed.
func (s *Session) advance(horizon sim.Time) uint64 {
	executed := s.f.advanceAll(s.workers, horizon)
	s.stats.Windows++
	s.stats.Events += executed
	s.stats.HostAdvances += uint64(len(s.f.act))
	return executed
}

// Windows returns the number of windows stepped so far — the keyframe
// index the control plane stamps commands and checkpoints with.
func (s *Session) Windows() int { return s.stats.Windows }

// Floor returns the virtual-time floor of the current boundary: every
// event strictly before it has executed on every live host.
func (s *Session) Floor() sim.Time { return s.start }

// Finish drains any remaining windows, parks every clock at the end
// instant (so idle-time accounting matches a serial Engine.Run(end)),
// tears the pool down and returns the totals.
func (s *Session) Finish() RunStats {
	for s.Step() {
	}
	f := s.f
	all := make([]int, len(f.hosts))
	for i := range all {
		all[i] = i
	}
	f.each(s.workers, all, func(i int) {
		f.hosts[i].Eng.Run(s.end)
	})
	return s.close()
}

// Close tears the session down mid-run without draining windows or
// parking clocks: the checkpoint-then-exit path, where the partial run's
// trace is discarded and only the keyframe survives.
func (s *Session) Close() RunStats { return s.close() }

func (s *Session) close() RunStats {
	if s.finished {
		return s.stats
	}
	s.finished = true
	s.done = true
	f := s.f
	if f.jobs != nil {
		close(f.jobs)
		f.jobs = nil
	}
	f.inSession = false
	for _, h := range f.hosts {
		s.stats.Sent += h.Sent
		s.stats.Delivered += h.Delivered
		s.stats.Lost += h.Lost
	}
	return s.stats
}
