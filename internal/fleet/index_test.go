package fleet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// dirWake is a test-only directive kind understood by wakeModel.
const dirWake uint8 = 100

// wakeModel is a host with nothing to do: Boot schedules no event, and on
// a bare engine (see buildWithIdle) the queue stays empty until a dirWake
// directive arms one event Dur ahead. Its Steer is the one that changes
// the engine's queue, which is what the index refresh in Host.Steer exists
// for.
type wakeModel struct{ fired int }

func (m *wakeModel) Boot(*Host)               {}
func (m *wakeModel) OnMessage(*Host, Message) {}

func (m *wakeModel) Steer(h *Host, d Directive) bool {
	if d.Kind != dirWake || d.Dur <= 0 {
		return false
	}
	h.Eng.After(d.Dur, "test:wake", func() { m.fired++ })
	return true
}

// buildWithIdle builds top's hosts the way Topology.Build does, with
// digest-only sinks, plus one last host "idle" running a wakeModel. Every
// booted host's Linux base ticks each jiffy, so the idle host's engine is
// swapped for a bare one that has nothing scheduled. Desktops only address
// webservers, so the idle host receives nothing.
func buildWithIdle(top Topology) (*Fleet, *Host, *wakeModel) {
	var names []string
	for i := 0; i < top.Webservers; i++ {
		names = append(names, fmt.Sprintf("ws-%04d", i))
	}
	for i := 0; i < top.Desktops; i++ {
		names = append(names, fmt.Sprintf("pc-%04d", i))
	}
	fab := netsim.NewFabric()
	for _, n := range names {
		fab.AddHost(n)
	}
	fab.AddHost("idle")
	if top.Link != nil {
		fab.SetDefaultPath(*top.Link)
	}
	fab.Freeze()
	f := New(fab)
	for i, n := range names {
		var m Model = newDesktopModel(top.Webservers, defaultClientThreads, top.ThinkMean)
		if i < top.Webservers {
			m = newWebserverModel(defaultServiceMean)
		}
		f.AddHost(n, HostSeed(top.Seed, i), trace.NewHashSink(), m)
	}
	wm := &wakeModel{}
	idle := f.AddHost("idle", HostSeed(top.Seed, len(names)), trace.NewHashSink(), wm)
	idle.Eng = sim.NewEngine(HostSeed(top.Seed, len(names)))
	return f, idle, wm
}

// engineNext is the engine's truth for the next-event index: the earliest
// pending instant, or never for an empty queue or a stopped engine.
func engineNext(h *Host) sim.Time {
	if t, ok := h.Eng.NextAt(); ok && !h.Eng.Stopped() {
		return t
	}
	return never
}

// checkBarrier asserts the barrier invariants: every index entry equals
// its engine's truth, and every outbox and staged queue is empty.
func checkBarrier(t *testing.T, f *Fleet, where string) {
	t.Helper()
	for i, h := range f.hosts {
		if want := engineNext(h); f.next[i] != want {
			t.Fatalf("%s: host %s indexed at %d, engine says %d", where, h.Name, f.next[i], want)
		}
		if len(h.outbox) != 0 || len(h.staged) != 0 {
			t.Fatalf("%s: host %s holds %d outbox and %d staged messages",
				where, h.Name, len(h.outbox), len(h.staged))
		}
	}
}

// stepChecked runs one session to its end, calling steer at every barrier.
// Around each Step it checks the barrier invariants and that the window
// advanced exactly the hosts whose engine had an event due before its
// horizon, in index order.
func stepChecked(t *testing.T, f *Fleet, end sim.Time, workers int, steer func(*Fleet, *Session)) (RunStats, uint64) {
	t.Helper()
	s := f.StartSession(end, workers)
	defer s.Close()
	checkBarrier(t, f, "session start")
	truth := make([]sim.Time, len(f.hosts))
	var advanced uint64
	floor := s.Floor()
	for {
		if steer != nil {
			steer(f, s)
			checkBarrier(t, f, fmt.Sprintf("steering at window %d", s.Windows()))
		}
		for i, h := range f.hosts {
			truth[i] = engineNext(h)
		}
		w := s.Windows()
		more := s.Step()
		if s.Windows() > w {
			var want []int
			for i, at := range truth {
				if at < f.horizon {
					want = append(want, i)
				}
			}
			if !slices.Equal(f.act, want) {
				t.Fatalf("window %d advanced hosts %v, want %v", s.Windows(), f.act, want)
			}
			advanced += uint64(len(f.act))
		}
		checkBarrier(t, f, fmt.Sprintf("after window %d", s.Windows()))
		if s.Floor() < floor {
			t.Fatalf("window %d moved the floor back from %d to %d", s.Windows(), floor, s.Floor())
		}
		floor = s.Floor()
		if !more {
			break
		}
	}
	stats := s.Finish()
	if stats.HostAdvances != advanced {
		t.Fatalf("HostAdvances %d, counted %d", stats.HostAdvances, advanced)
	}
	return stats, f.Digest()
}

// steerAll applies every directive kind, a kill and a restart, and wakes
// the idle host (when there is one) at fixed windows.
func steerAll(idle *Host) func(*Fleet, *Session) {
	return func(f *Fleet, s *Session) {
		switch s.Windows() {
		case 10:
			for _, h := range f.hosts {
				h.Steer(Directive{Kind: DirSpike, Arg: 4, Dur: sim.Duration(200 * sim.Millisecond)})
			}
		case 20:
			f.HostByName("ws-0000").Kill()
		case 25:
			for _, h := range f.hosts {
				h.Steer(Directive{Kind: DirPolicy, Arg: PolicyAdaptive})
			}
		case 30:
			for _, h := range f.hosts {
				h.Steer(Directive{Kind: DirCoalesce, Arg: int64(100 * sim.Millisecond)})
			}
		case 40:
			if idle != nil {
				idle.Steer(Directive{Kind: dirWake, Dur: sim.Duration(3 * sim.Millisecond)})
			}
		case 60:
			f.HostByName("ws-0000").Restart(s.Floor())
		}
	}
}

// TestNextIndexConsistency: in every Step mode — lookahead windows,
// zero-RTT lock-step and the unbounded single window — and at workers 1
// and 4, the next-event index matches every engine after each Step and
// each steering action, the barrier leaves no message in an outbox or a
// staged queue, and each window advances exactly the hosts with work due.
func TestNextIndexConsistency(t *testing.T) {
	lockstep := hashTopology()
	lockstep.Link = &netsim.PathConfig{Latency: 0}
	cases := []struct {
		name string
		top  Topology
		end  sim.Time
		idle bool
	}{
		{"bounded", hashTopology(), sim.Time(2 * sim.Second), true},
		{"lockstep", lockstep, sim.Time(300 * sim.Millisecond), true},
		{"unbounded", Topology{Webservers: 1, Seed: 7}, sim.Time(sim.Second), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref RunStats
			var refDigest uint64
			for _, workers := range []int{1, 4} {
				var f *Fleet
				var idle *Host
				var wm *wakeModel
				if tc.idle {
					f, idle, wm = buildWithIdle(tc.top)
				} else {
					f = tc.top.Build()
				}
				stats, digest := stepChecked(t, f, tc.end, workers, steerAll(idle))
				if wm != nil && wm.fired != 1 {
					t.Fatalf("workers=%d: woken idle host fired %d times, want 1", workers, wm.fired)
				}
				if workers == 1 {
					ref, refDigest = stats, digest
					if stats.HostAdvances == 0 || tc.idle && stats.HostAdvances >= uint64(stats.Windows*len(f.hosts)) {
						t.Fatalf("HostAdvances %d over %d windows of %d hosts", stats.HostAdvances, stats.Windows, len(f.hosts))
					}
					continue
				}
				if stats != ref || digest != refDigest {
					t.Fatalf("workers=%d: %+v digest %016x, workers=1: %+v digest %016x",
						workers, stats, digest, ref, refDigest)
				}
			}
		})
	}
}

// TestIdleHostNeverAdvanced: a host with no pending event sits out every
// window; once a directive arms one event it is advanced in exactly the
// window that runs it, then sits out again. A killed host, whose backlog
// is frozen, likewise sits out every window until its restart.
func TestIdleHostNeverAdvanced(t *testing.T) {
	const wakeAt, killAt, restartAt = 100, 50, 300
	f, idle, wm := buildWithIdle(hashTopology())
	down := f.HostByName("ws-0001")
	s := f.StartSession(sim.Time(sim.Second), 1)
	idleWindows, downWindows := 0, 0
	for {
		switch s.Windows() {
		case wakeAt:
			idle.Steer(Directive{Kind: dirWake, Dur: sim.Duration(sim.Millisecond)})
		case killAt:
			down.Kill()
		case restartAt:
			down.Restart(s.Floor())
		}
		w := s.Windows()
		more := s.Step()
		if s.Windows() > w {
			if slices.Contains(f.act, idle.Index) {
				if w < wakeAt {
					t.Fatalf("idle host advanced in window %d, before anything was due", w+1)
				}
				idleWindows++
			}
			if slices.Contains(f.act, down.Index) && w >= killAt && w < restartAt {
				downWindows++
			}
		}
		if !more {
			break
		}
	}
	stats := s.Finish()
	if idleWindows != 1 || wm.fired != 1 {
		t.Fatalf("woken host advanced in %d windows and fired %d times, want 1 and 1", idleWindows, wm.fired)
	}
	if downWindows != 0 {
		t.Fatalf("killed host advanced in %d windows while down", downWindows)
	}
	if down.Eng.Stats().Events == 0 || stats.HostAdvances == 0 {
		t.Fatalf("no work ran: %+v", stats)
	}
}

// TestSendAtBarrierPanics: Host.Send outside the host's own engine
// callbacks panics instead of stranding the message in an outbox that no
// barrier will drain.
func TestSendAtBarrierPanics(t *testing.T) {
	f := hashTopology().Build()
	s := f.StartSession(sim.Time(sim.Second), 1)
	defer s.Close()
	for s.Windows() < 5 && s.Step() {
	}
	h := f.HostByName("pc-0000")
	sent := h.Sent
	got := func() (r any) {
		defer func() { r = recover() }()
		h.Send(0, MsgRequest, 1, requestSize)
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "Host.Send outside the sending host's engine callbacks") {
		t.Fatalf("Send at a barrier: recovered %v, want the Send-rule panic", got)
	}
	if len(h.outbox) != 0 || h.Sent != sent {
		t.Fatalf("rejected Send queued a message: outbox %d, Sent %d -> %d", len(h.outbox), sent, h.Sent)
	}
}

// staleIndexFleet builds two bare-engine hosts on one link of the given
// latency: "a" with one event armed at 5 ms, "b" with nothing to run. Its
// per-host advance skips b's index refresh, as a dropped refresh point
// would, so a stale entry planted for b survives every window.
func staleIndexFleet(latency sim.Duration) (*Fleet, *Host) {
	fab := netsim.NewFabric()
	fab.AddHost("a")
	fab.AddHost("b")
	fab.SetDefaultPath(netsim.PathConfig{Latency: latency})
	fab.Freeze()
	f := New(fab)
	var hosts []*Host
	for i, n := range []string{"a", "b"} {
		h := f.AddHost(n, HostSeed(1, i), trace.NewHashSink(), &wakeModel{})
		h.Eng = sim.NewEngine(HostSeed(1, i))
		hosts = append(hosts, h)
	}
	hosts[0].Steer(Directive{Kind: dirWake, Dur: sim.Duration(5 * sim.Millisecond)})
	stale := hosts[1]
	f.advanceFn = func(i int) {
		h := f.hosts[i]
		h.windowExecuted = h.Eng.AdvanceUntil(f.horizon)
		if i != stale.Index {
			f.refresh(i)
		}
	}
	return f, stale
}

// TestStepPanicsOnStaleIndex: a next-event entry before the window floor
// that the host's engine does not confirm makes Step panic, naming the
// host and the instants, in the idle-window jump and in lock-step, instead
// of moving the floor back and stepping the same window forever.
// (Entries before the floor that the engine confirms, such as a restarted
// host's backlog, are exercised by TestNextIndexConsistency.)
func TestStepPanicsOnStaleIndex(t *testing.T) {
	cases := []struct {
		name    string
		latency sim.Duration
		plant   func(f *Fleet, s *Session, stale *Host)
		want    string
	}{
		{"idle-window", sim.Duration(sim.Millisecond), func(f *Fleet, s *Session, stale *Host) {
			f.next[stale.Index] = s.Floor()
		}, "host b indexed at 0, before the idle window's horizon 1000000"},
		{"lockstep", 0, func(f *Fleet, s *Session, stale *Host) {
			s.Step() // runs a's event at 5 ms: the floor moves past it
			f.next[stale.Index] = sim.Time(sim.Millisecond)
		}, "host b indexed at 1000000, before the lock-step floor 5000001"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, stale := staleIndexFleet(tc.latency)
			s := f.StartSession(sim.Time(sim.Second), 1)
			defer s.Close()
			tc.plant(f, s, stale)
			got := func() (r any) {
				defer func() { r = recover() }()
				for i := 0; i < 1000 && s.Step(); i++ {
				}
				return nil
			}()
			msg, _ := got.(string)
			if !strings.Contains(msg, tc.want) || !strings.Contains(msg, "stale next-event index entry") {
				t.Fatalf("stale entry: recovered %v after %d windows, floor %d; want a panic containing %q",
					got, s.Windows(), s.Floor(), tc.want)
			}
		})
	}
}
