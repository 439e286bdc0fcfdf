package control

import (
	"runtime"
	"strings"
	"testing"

	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
)

// testSpec mirrors the fleet package's test topology: a small but fully
// wired datacenter with cross-host traffic, retransmits and daemons.
func testSpec() Spec {
	return Spec{
		Webservers: 2,
		Desktops:   6,
		Seed:       42,
		ThinkMean:  20 * sim.Millisecond,
		End:        2 * sim.Duration(sim.Second),
	}
}

func mustPlane(t *testing.T, spec Spec, opts ...Option) *Plane {
	t.Helper()
	p, err := NewPlane(spec, opts...)
	if err != nil {
		t.Fatalf("NewPlane: %v", err)
	}
	return p
}

func hostIndex(t *testing.T, p *Plane, name string) int32 {
	t.Helper()
	for i, h := range p.Fleet().Hosts() {
		if h.Name == name {
			return int32(i)
		}
	}
	t.Fatalf("no host %q", name)
	return -1
}

func TestNewPlaneRejectsBadSpec(t *testing.T) {
	cases := []Spec{
		{Webservers: 0, Desktops: 0, End: sim.Duration(sim.Second)},
		{Webservers: -1, Desktops: 2, End: sim.Duration(sim.Second)},
		{Webservers: 1, Desktops: 1, End: 0},
	}
	for i, s := range cases {
		if _, err := NewPlane(s); err == nil {
			t.Fatalf("case %d: bad spec accepted: %+v", i, s)
		}
	}
}

// TestEnqueueValidation: the façade contract — malformed commands are
// rejected immediately with a reason; well-formed ones are stamped. A
// recorded log holding any of the same commands fails Replay with that
// reason instead of reaching apply.
func TestEnqueueValidation(t *testing.T) {
	p := mustPlane(t, testSpec())
	defer p.Abort()
	bad := []struct {
		c      Command
		reason string
	}{
		{Command{Kind: 0}, "unknown command kind"},
		{Command{Kind: kindEnd}, "unknown command kind"},
		{Command{Kind: 6}, "unknown command kind"}, // the retired queue-swap kind
		{Command{Kind: 200, Host: -1}, "unknown command kind"},
		{Command{Kind: KindKill, Host: 99}, "out of range"},
		{Command{Kind: KindKill, Host: 9999}, "out of range"},
		{Command{Kind: KindKill, Host: -2}, "out of range"},
		{Command{Kind: KindKill, Host: -1}, "needs a specific host"},
		{Command{Kind: KindRestart, Host: -1}, "needs a specific host"},
		{Command{Kind: KindSpike, Host: -1, Arg: 0, Dur: 1}, "factor must be >= 1"},
		{Command{Kind: KindSpike, Host: -1, Arg: 2, Dur: 0}, "positive duration"},
		{Command{Kind: KindPolicy, Host: -1, Arg: 7}, "unknown timeout policy"},
		{Command{Kind: KindCoalesce, Host: -1, Arg: -1}, "must be >= 0"},
	}
	for i, tc := range bad {
		ok, reason := p.Enqueue(tc.c)
		if ok {
			t.Fatalf("case %d: accepted %+v", i, tc.c)
		}
		if !strings.Contains(reason, tc.reason) {
			t.Fatalf("case %d: reason %q does not mention %q", i, reason, tc.reason)
		}
		c := tc.c
		c.Seq, c.Window = 2, 3
		rp, err := Replay(testSpec(), []Command{{Seq: 1, Window: 1, Kind: KindCoalesce, Host: -1, Arg: 1}, c})
		if err == nil {
			rp.Finish() // an unchecked command reaches apply here
			t.Fatalf("case %d: replay accepted %+v", i, tc.c)
		}
		if !strings.Contains(err.Error(), tc.reason) || !strings.Contains(err.Error(), "command 1") {
			t.Fatalf("case %d: replay error %q does not name command 1 and %q", i, err, tc.reason)
		}
	}
	if n := len(p.Pending()); n != 0 {
		t.Fatalf("rejected commands staged: %d pending", n)
	}

	ok, reason := p.Enqueue(Command{Kind: KindSpike, Host: -1, Arg: 2, Dur: sim.Duration(sim.Second)})
	if !ok {
		t.Fatalf("valid spike rejected: %s", reason)
	}
	pend := p.Pending()
	if len(pend) != 1 || pend[0].Seq != 1 {
		t.Fatalf("accepted command not stamped: %+v", pend)
	}

	// Past windows are rejected; window 0 stamps to the current boundary.
	for i := 0; i < 5; i++ {
		if !p.Advance() {
			t.Fatal("run ended inside warmup")
		}
	}
	if ok, reason := p.Enqueue(Command{Kind: KindKill, Host: 0, Window: 2}); ok || !strings.Contains(reason, "already passed") {
		t.Fatalf("past window: ok=%v reason=%q", ok, reason)
	}
	ok, _ = p.Enqueue(Command{Kind: KindKill, Host: 0})
	if !ok {
		t.Fatal("current-window kill rejected")
	}
	pend = p.Pending()
	if got := pend[len(pend)-1].Window; got != uint64(p.Windows()) {
		t.Fatalf("window 0 stamped to %d, current is %d", got, p.Windows())
	}
}

func TestEnqueueQueueBound(t *testing.T) {
	p := mustPlane(t, testSpec())
	defer p.Abort()
	c := Command{Kind: KindCoalesce, Host: -1, Arg: 1, Window: 1000}
	for i := 0; i < maxQueue; i++ {
		if ok, reason := p.Enqueue(c); !ok {
			t.Fatalf("enqueue %d: %s", i, reason)
		}
	}
	if ok, reason := p.Enqueue(c); ok || !strings.Contains(reason, "queue full") {
		t.Fatalf("enqueue past the bound: ok=%v reason=%q", ok, reason)
	}
}

// script stages the canonical steering sequence used across the
// determinism tests: spike, kill, policy switch, coalesce, restart.
func script(t *testing.T, p *Plane) {
	t.Helper()
	ws := hostIndex(t, p, "ws-0000")
	cmds := []Command{
		{Kind: KindSpike, Host: -1, Arg: 4, Dur: 500 * sim.Duration(sim.Millisecond), Window: 10},
		{Kind: KindKill, Host: ws, Window: 20},
		{Kind: KindPolicy, Host: -1, Arg: int64(fleet.PolicyAdaptive), Window: 25},
		{Kind: KindCoalesce, Host: -1, Arg: int64(100 * sim.Millisecond), Window: 30},
		{Kind: KindRestart, Host: ws, Window: 60},
	}
	for i, c := range cmds {
		if ok, reason := p.Enqueue(c); !ok {
			t.Fatalf("script command %d rejected: %s", i, reason)
		}
	}
}

// TestReplayDeterminism: the same (spec, command log) reproduces the
// interactive run bit for bit at any worker count.
func TestReplayDeterminism(t *testing.T) {
	p := mustPlane(t, testSpec(), WithWorkers(1))
	script(t, p)
	p.Finish()
	want := p.Fleet().Digest()
	log := p.CommandLog()
	if len(log) != 5 {
		t.Fatalf("script only applied %d of 5 commands", len(log))
	}

	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		rp, err := Replay(testSpec(), log, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rp.Finish()
		if got := rp.Fleet().Digest(); got != want {
			t.Fatalf("workers=%d: replay digest %016x != interactive %016x", workers, got, want)
		}
		rlog := rp.CommandLog()
		if len(rlog) != len(log) {
			t.Fatalf("workers=%d: replay applied %d commands, want %d", workers, len(rlog), len(log))
		}
		for i := range log {
			if rlog[i] != log[i] {
				t.Fatalf("workers=%d: replay log diverged at %d: %+v != %+v", workers, i, rlog[i], log[i])
			}
		}
	}

	clean := mustPlane(t, testSpec())
	clean.Finish()
	if clean.Fleet().Digest() == want {
		t.Fatal("steering script did not change the run")
	}
}

// TestPatchesAndSnapshot: the patch feed reports what each command did at
// its boundary, and snapshots summarize the plane truthfully.
func TestPatchesAndSnapshot(t *testing.T) {
	p := mustPlane(t, testSpec())
	defer p.Abort()
	ws := hostIndex(t, p, "ws-0000")

	s0 := p.Snapshot()
	if s0.Hosts != 8 || s0.HostsDown != 0 || s0.Done || s0.Window != 0 {
		t.Fatalf("fresh snapshot: %+v", s0)
	}

	enq := func(c Command) {
		t.Helper()
		if ok, reason := p.Enqueue(c); !ok {
			t.Fatalf("enqueue %+v: %s", c, reason)
		}
	}
	enq(Command{Kind: KindKill, Host: ws})
	enq(Command{Kind: KindKill, Host: ws})        // second kill: drained, not applied
	enq(Command{Kind: KindRestart, Host: ws + 1}) // not down
	if !p.Advance() {
		t.Fatal("run ended on first window")
	}

	patches := p.DrainPatches()
	if len(patches) != 3 {
		t.Fatalf("patch count %d, want 3: %+v", len(patches), patches)
	}
	if !patches[0].Applied || patches[0].Kind != "kill" || patches[0].Host != "ws-0000" {
		t.Fatalf("kill patch: %+v", patches[0])
	}
	if patches[1].Applied || patches[1].Detail != "already down" {
		t.Fatalf("double-kill patch: %+v", patches[1])
	}
	if patches[2].Applied || patches[2].Detail != "not down" {
		t.Fatalf("restart-up patch: %+v", patches[2])
	}
	if len(p.DrainPatches()) != 0 {
		t.Fatal("drain did not empty the feed")
	}

	s1 := p.Snapshot()
	if s1.HostsDown != 1 {
		t.Fatalf("snapshot misses the down host: %+v", s1)
	}
	if s1.LogLen != 3 || s1.QueueDepth != 0 {
		t.Fatalf("snapshot log/queue: %+v", s1)
	}
	if s1.Window == 0 || s1.Floor <= 0 {
		t.Fatalf("snapshot did not advance: %+v", s1)
	}
}

// TestPatchBufferBounded: the feed evicts its oldest entries rather than
// growing without bound, and counts what it dropped. The queue bound is
// below the feed bound, so the patches accumulate over several windows.
func TestPatchBufferBounded(t *testing.T) {
	p := mustPlane(t, testSpec())
	defer p.Abort()
	for i := 0; i < maxPatchBuffer+5; i++ {
		if len(p.Pending()) == maxQueue && !p.Advance() {
			t.Fatalf("run ended after %d enqueues", i)
		}
		if ok, reason := p.Enqueue(Command{Kind: KindCoalesce, Host: -1, Arg: 1}); !ok {
			t.Fatalf("enqueue %d: %s", i, reason)
		}
	}
	if !p.Advance() {
		t.Fatal("run ended before the last batch applied")
	}
	patches := p.DrainPatches()
	if len(patches) != maxPatchBuffer {
		t.Fatalf("feed holds %d, want cap %d", len(patches), maxPatchBuffer)
	}
	if got := p.Snapshot().Dropped; got != 5 {
		t.Fatalf("dropped count %d, want 5", got)
	}
	// The survivors are the newest entries.
	if patches[0].Seq != 6 {
		t.Fatalf("eviction kept the wrong end: first surviving seq %d", patches[0].Seq)
	}
}

// TestEnqueueAfterDone: a finished plane accepts nothing.
func TestEnqueueAfterDone(t *testing.T) {
	spec := testSpec()
	spec.End = 100 * sim.Duration(sim.Millisecond)
	p := mustPlane(t, spec)
	p.Finish()
	if !p.Done() {
		t.Fatal("plane not done after Finish")
	}
	if ok, reason := p.Enqueue(Command{Kind: KindKill, Host: 0}); ok || !strings.Contains(reason, "complete") {
		t.Fatalf("done plane accepted a command: ok=%v reason=%q", ok, reason)
	}
}
