package fleet

import (
	"runtime"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// hashTopology is testTopology with digest-only sinks, the configuration
// the control plane runs.
func hashTopology() Topology {
	top := testTopology()
	top.NewSink = func(string) trace.Sink { return trace.NewHashSink() }
	return top
}

// TestSessionMatchesRun: stepping a session window by window, at any
// worker count, is byte-identical to the one-shot serial run
// (StartSession(end, 1).Finish()).
func TestSessionMatchesRun(t *testing.T) {
	const end = sim.Time(2 * sim.Second)
	ref := hashTopology().Build()
	refStats := ref.StartSession(end, 1).Finish()
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		f := hashTopology().Build()
		s := f.StartSession(end, workers)
		steps := 0
		for s.Step() {
			steps++
			if fl := s.Floor(); fl <= 0 {
				t.Fatalf("workers=%d: floor not advancing at step %d", workers, steps)
			}
		}
		stats := s.Finish()
		if f.Digest() != ref.Digest() {
			t.Fatalf("workers=%d: stepped digest %016x != one-shot digest %016x",
				workers, f.Digest(), ref.Digest())
		}
		if stats.Windows != refStats.Windows || stats.Events != refStats.Events {
			t.Fatalf("workers=%d: stepped stats %+v != one-shot stats %+v", workers, stats, refStats)
		}
		if s.Windows() != stats.Windows {
			t.Fatalf("Windows() %d != stats.Windows %d", s.Windows(), stats.Windows)
		}
	}
}

// steeredRun steps a session applying fn at each barrier; returns digest.
func steeredRun(t *testing.T, end sim.Time, workers int, fn func(f *Fleet, s *Session)) (uint64, RunStats) {
	t.Helper()
	f := hashTopology().Build()
	s := f.StartSession(end, workers)
	for {
		fn(f, s)
		if !s.Step() {
			break
		}
	}
	stats := s.Finish()
	return f.Digest(), stats
}

// TestKillRestartDeterministic: killing a webserver mid-run and restarting
// it later is deterministic across worker counts, loses traffic while the
// host is down, and diverges from the unsteered run.
func TestKillRestartDeterministic(t *testing.T) {
	const end = sim.Time(2 * sim.Second)
	steer := func(f *Fleet, s *Session) {
		switch s.Windows() {
		case 20:
			f.HostByName("ws-0000").Kill()
		case 60:
			f.HostByName("ws-0000").Restart(s.Floor())
		}
	}
	base, baseStats := steeredRun(t, end, 1, steer)
	if baseStats.Lost == 0 {
		t.Fatal("killed webserver lost no traffic")
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		got, _ := steeredRun(t, end, workers, steer)
		if got != base {
			t.Fatalf("workers=%d: steered digest %016x != serial %016x", workers, got, base)
		}
	}
	clean, _ := steeredRun(t, end, 1, func(*Fleet, *Session) {})
	if clean == base {
		t.Fatal("kill/restart did not change the run")
	}
}

// TestSteerSpikeAndPolicy: directives apply, replay deterministically at
// any worker count, and actually change behaviour.
func TestSteerSpikeAndPolicy(t *testing.T) {
	const end = sim.Time(2 * sim.Second)
	steer := func(f *Fleet, s *Session) {
		if s.Windows() != 10 {
			return
		}
		for _, h := range f.Hosts() {
			h.Steer(Directive{Kind: DirSpike, Arg: 8, Dur: sim.Duration(sim.Second)})
			h.Steer(Directive{Kind: DirPolicy, Arg: PolicyAdaptive})
		}
	}
	base, baseStats := steeredRun(t, end, 1, steer)
	for _, workers := range []int{2, runtime.NumCPU()} {
		got, _ := steeredRun(t, end, workers, steer)
		if got != base {
			t.Fatalf("workers=%d: steered digest %016x != serial %016x", workers, got, base)
		}
	}
	clean, cleanStats := steeredRun(t, end, 1, func(*Fleet, *Session) {})
	if clean == base {
		t.Fatal("spike+policy did not change the run")
	}
	if baseStats.Sent <= cleanStats.Sent {
		t.Fatalf("8x spike did not raise traffic: steered %d, clean %d", baseStats.Sent, cleanStats.Sent)
	}

	// Webservers are not steerable; desktops reject unknown directives.
	f := hashTopology().Build()
	if f.HostByName("ws-0000").Steer(Directive{Kind: DirSpike, Arg: 2, Dur: 1}) {
		t.Fatal("webserver accepted a steering directive")
	}
	if f.HostByName("pc-0000").Steer(Directive{Kind: 99}) {
		t.Fatal("desktop accepted an unknown directive")
	}
}

// TestKeyframeVerifies: keyframes of identical runs match field for field;
// a run with a different seed does not.
func TestKeyframeVerifies(t *testing.T) {
	const end = sim.Time(500 * sim.Millisecond)
	build := func(seed int64) *Fleet {
		top := hashTopology()
		top.Seed = seed
		return top.Build()
	}
	a, b := build(42), build(42)
	a.StartSession(end, 1).Finish()
	b.StartSession(end, runtime.NumCPU()).Finish()
	ka, kb := a.Keyframe(), b.Keyframe()
	if len(ka) != len(kb) || len(ka) == 0 {
		t.Fatalf("keyframe sizes: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("keyframe host %d differs:\na: %+v\nb: %+v", i, ka[i], kb[i])
		}
		if ka[i].EventsHash == 0 || ka[i].Digest == 0 {
			t.Fatalf("degenerate keyframe for %s: %+v", ka[i].Name, ka[i])
		}
	}
	c := build(43)
	c.StartSession(end, 1).Finish()
	kc := c.Keyframe()
	same := 0
	for i := range kc {
		if kc[i] == ka[i] {
			same++
		}
	}
	if same == len(kc) {
		t.Fatal("different seed produced identical keyframes")
	}
}
