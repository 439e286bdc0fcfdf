package workloads

import (
	"strings"
	"testing"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// bootDaemonHost builds a kit with the full kernel-daemon population plus
// one counting 1 s periodic, runs it for the span, and returns the engine
// and the counter's fire count. NoHZ is on: under a periodic tick the tick
// itself dominates wakeups and coalescing is invisible (the pre-dynticks
// situation the paper describes); only a tickless kernel turns fewer timer
// instants into fewer wakeups.
func bootDaemonHost(coalesce sim.Duration, span sim.Time) (*sim.Engine, int) {
	eng := sim.NewEngine(99)
	l := kernel.NewLinux(eng, trace.NewHashSink(), jiffies.WithNoHZ(true))
	k := NewHostKit(eng, l)
	k.SetCoalesce(coalesce)
	k.BootKernelDaemons()
	fires := 0
	k.Periodic("test:counter", sim.Second, func() { fires++ })
	eng.Run(span)
	return eng, fires
}

// TestCoalesceReducesWakeups: with the periodic daemons on a shared grid,
// distinct wakeup instants collapse — the round_jiffies effect the knob
// models — while each timer keeps (nearly) its programmed rate: coalescing
// batches fires, it does not swallow them.
func TestCoalesceReducesWakeups(t *testing.T) {
	const span = sim.Time(30 * sim.Second)
	off, offFires := bootDaemonHost(0, span)
	on, onFires := bootDaemonHost(100*sim.Millisecond, span)
	if off.Stats().Wakeups == 0 {
		t.Fatal("daemon host produced no wakeups")
	}
	if on.Stats().Wakeups >= off.Stats().Wakeups {
		t.Fatalf("coalescing did not reduce wakeups: %d (on) vs %d (off)",
			on.Stats().Wakeups, off.Stats().Wakeups)
	}
	// Deferral, not suppression: each cycle stretches by at most one
	// window (the slack rule in armCoalesced), so a 1 s periodic under a
	// 100 ms grid keeps within ~10% of its uncoalesced fire count.
	if offFires < 25 {
		t.Fatalf("counter barely fired uncoalesced: %d", offFires)
	}
	if onFires < offFires*9/10 {
		t.Fatalf("coalescing suppressed fires: %d (on) vs %d (off)", onFires, offFires)
	}
}

// TestCoalesceDeterministic: the knob is part of the deterministic state —
// equal windows give equal runs, and SetCoalesce validates its input.
func TestCoalesceDeterministic(t *testing.T) {
	const span = sim.Time(5 * sim.Second)
	a, _ := bootDaemonHost(sim.Duration(sim.Millisecond)*250, span)
	b, _ := bootDaemonHost(sim.Duration(sim.Millisecond)*250, span)
	if a.State() != b.State() {
		t.Fatalf("coalesced runs diverged:\na: %+v\nb: %+v", a.State(), b.State())
	}

	eng := sim.NewEngine(1)
	k := NewHostKit(eng, kernel.NewLinux(eng, trace.NewHashSink()))
	k.SetCoalesce(-5)
	if k.Coalesce() != 0 {
		t.Fatalf("negative window accepted: %v", k.Coalesce())
	}
	k.SetCoalesce(sim.Second)
	if k.Coalesce() != sim.Second {
		t.Fatalf("window not stored: %v", k.Coalesce())
	}
}

// TestKernelDaemonPhaseNames: each of the ten kernel daemons schedules its
// first arm as an event named after its own timer's origin plus ":phase",
// the name Periodic builds; the daemons pass these names as constants.
func TestKernelDaemonPhaseNames(t *testing.T) {
	eng := sim.NewEngine(99)
	buf := trace.NewBuffer(trace.DefaultCapacity)
	k := NewHostKit(eng, kernel.NewLinux(eng, buf))
	k.BootKernelDaemons()
	origins := map[string]bool{}
	for _, r := range buf.Records() {
		if r.Op == trace.OpInit {
			origins[buf.OriginName(r.Origin)] = true
		}
	}
	phases := map[string]bool{}
	eng.ForEachPending(func(_ sim.Time, name string) {
		if origin, ok := strings.CutSuffix(name, ":phase"); ok {
			if !origins[origin] || phases[name] {
				t.Errorf("phase event %q: not a daemon timer's origin, or scheduled twice", name)
			}
			phases[name] = true
		}
	})
	if len(phases) != 10 {
		t.Fatalf("%d distinct phase events, want one per kernel daemon (10): %v", len(phases), phases)
	}
}
