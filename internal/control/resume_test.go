package control

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// runToWindow advances the plane until the given window boundary.
func runToWindow(t *testing.T, p *Plane, w int) {
	t.Helper()
	for p.Windows() < w {
		if !p.Advance() {
			t.Fatalf("run ended at window %d, before %d", p.Windows(), w)
		}
	}
}

// checkpointAt drives the steering script to the given window and returns
// the checkpoint plus the uninterrupted run's final digest.
func checkpointAt(t *testing.T, w int) (*trace.Checkpoint, uint64) {
	t.Helper()
	p := mustPlane(t, testSpec(), WithWorkers(1))
	script(t, p)
	runToWindow(t, p, w)
	cp := p.Checkpoint("test")
	p.Finish()
	return cp, p.Fleet().Digest()
}

// TestCheckpointResume is the tentpole's acceptance gate: stop a steered
// run mid-flight, round-trip the checkpoint through its wire format,
// resume at a different worker count, and land on the exact digest the
// uninterrupted run produced.
func TestCheckpointResume(t *testing.T) {
	cp, want := checkpointAt(t, 40)
	if cp.Window != 40 {
		t.Fatalf("checkpoint window %d, want 40", cp.Window)
	}
	if len(cp.Hosts) != 8 {
		t.Fatalf("keyframe hosts %d, want 8", len(cp.Hosts))
	}

	var buf bytes.Buffer
	if err := trace.WriteCheckpoint(&buf, cp); err != nil {
		t.Fatalf("write: %v", err)
	}
	cp2, err := trace.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		r, err := Resume(cp2, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if got := r.Windows(); got != 40 {
			t.Fatalf("workers=%d: resumed at window %d", workers, got)
		}
		if pts := r.DrainPatches(); len(pts) != 0 {
			t.Fatalf("workers=%d: replay history leaked %d patches", workers, len(pts))
		}
		r.Finish()
		if got := r.Fleet().Digest(); got != want {
			t.Fatalf("workers=%d: resumed digest %016x != uninterrupted %016x", workers, got, want)
		}
	}
}

// TestResumeBeforePendingCommand: a checkpoint taken before a staged
// command's boundary carries the command across the gap — the resumed run
// still applies it (here the window-60 restart, taken at window 30).
func TestResumeBeforePendingCommand(t *testing.T) {
	cp, want := checkpointAt(t, 30)
	r, err := Resume(cp, WithWorkers(2))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if n := len(r.Pending()); n == 0 {
		t.Fatal("pending restart lost across the checkpoint")
	}
	r.Finish()
	if got := r.Fleet().Digest(); got != want {
		t.Fatalf("resumed digest %016x != uninterrupted %016x", got, want)
	}
	// The restart applied: no host is down at the end.
	if down := r.Snapshot().HostsDown; down != 0 {
		t.Fatalf("%d hosts still down at end of resumed run", down)
	}
}

// TestResumeContinuesSteering: commands enqueued after a resume continue
// the Seq sequence and steer the continued run.
func TestResumeContinuesSteering(t *testing.T) {
	cp, want := checkpointAt(t, 40)
	r, err := Resume(cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	maxSeq := uint64(0)
	for _, c := range r.CommandLog() {
		if c.Seq > maxSeq {
			maxSeq = c.Seq
		}
	}
	for _, c := range r.Pending() {
		if c.Seq > maxSeq {
			maxSeq = c.Seq
		}
	}
	ok, reason := r.Enqueue(Command{Kind: KindCoalesce, Host: -1, Arg: int64(50 * sim.Millisecond)})
	if !ok {
		t.Fatalf("post-resume enqueue: %s", reason)
	}
	pend := r.Pending()
	if got := pend[len(pend)-1].Seq; got != maxSeq+1 {
		t.Fatalf("post-resume seq %d, want %d", got, maxSeq+1)
	}
	r.Finish()
	if got := r.Fleet().Digest(); got == want {
		t.Fatal("post-resume steering did not change the run")
	}
}

// TestResumeVerificationFailure: a tampered keyframe is caught, and the
// error names the divergent host and field group.
func TestResumeVerificationFailure(t *testing.T) {
	tamper := []struct {
		name string
		mut  func(cp *trace.Checkpoint)
		want string
	}{
		{"events hash", func(cp *trace.Checkpoint) { cp.Hosts[2].EventsHash ^= 1 }, "pending set diverged"},
		{"clock", func(cp *trace.Checkpoint) { cp.Hosts[0].Clock++ }, "clock"},
		{"rng", func(cp *trace.Checkpoint) { cp.Hosts[1].RandDraws += 7 }, "rng draws"},
		{"digest", func(cp *trace.Checkpoint) { cp.Hosts[3].Digest ^= 0xFF }, "trace digest"},
		{"down", func(cp *trace.Checkpoint) { cp.Hosts[4].Down = !cp.Hosts[4].Down }, "down"},
		{"counters", func(cp *trace.Checkpoint) { cp.Hosts[5].Counters.Total++ }, "counters diverged"},
		{"host count", func(cp *trace.Checkpoint) { cp.Hosts = cp.Hosts[:7] }, "8"},
		{"vtime", func(cp *trace.Checkpoint) { cp.VTime++ }, "vtime"},
		{"seed", func(cp *trace.Checkpoint) { cp.Seed++ }, "seed"},
		{"hostile command", func(cp *trace.Checkpoint) {
			cp.Commands = EncodeCommands([]Command{{Seq: 1, Window: 1, Kind: KindKill, Host: -1}})
		}, "needs a specific host"},
	}
	for _, tc := range tamper {
		cp, _ := checkpointAt(t, 40)
		tc.mut(cp)
		r, err := Resume(cp)
		if err == nil {
			r.Abort()
			t.Fatalf("%s: tampered checkpoint resumed", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestResumePastEnd: a checkpoint claiming a window beyond the run's end
// is a config mismatch, not a hang or a panic.
func TestResumePastEnd(t *testing.T) {
	cp, _ := checkpointAt(t, 40)
	cp.Window = 1 << 40
	if _, err := Resume(cp); err == nil || !strings.Contains(err.Error(), "before checkpoint window") {
		t.Fatalf("absurd checkpoint window: %v", err)
	}
}
