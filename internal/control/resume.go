package control

import (
	"encoding/json"
	"fmt"

	"timerstudy/internal/trace"
)

// Checkpoint/resume is replay-based (see sim.EngineState's docs): a
// checkpoint does not serialize engine heaps — pending events are closures
// — it serializes the run's identity (spec), its input history (command
// log) and a per-host verification keyframe. Resume rebuilds the fleet
// from the spec, replays the command log window by window to the
// checkpoint boundary, and then proves the reconstruction: every host's
// clock, scheduling sequence, pending-set hash, RNG position, trace digest
// and counters must match the keyframe exactly. A resumed run that passes
// verification is bit-identical to the run that wrote the checkpoint, so
// continuing it produces the same final digest as never having stopped.

// Checkpoint captures the plane at the current barrier as a serializable
// checkpoint (write it with trace.WriteCheckpoint). The command blob holds
// the applied log plus the still-pending queue: commands staged for a
// window beyond the checkpoint survive the round trip and fire at their
// stamped boundary in the resumed run.
func (p *Plane) Checkpoint(label string) *trace.Checkpoint {
	cfg, err := json.Marshal(p.spec)
	if err != nil {
		// Spec is a plain struct of scalars; Marshal cannot fail on it.
		panic("control: marshal spec: " + err.Error())
	}
	history := make([]Command, 0, len(p.log)+len(p.queue))
	history = append(history, p.log...)
	history = append(history, p.queue...)
	return &trace.Checkpoint{
		Label:    label,
		Seed:     p.spec.Seed,
		Window:   uint64(p.session.Windows()),
		VTime:    int64(p.session.Floor()),
		Config:   cfg,
		Commands: EncodeCommands(history),
		Hosts:    p.fleet.Keyframe(),
	}
}

// Replay builds a plane that will re-apply a recorded command log at the
// original boundaries: the log is preloaded as the pending queue with its
// stamps intact, so advancing the plane reproduces the recorded run bit
// for bit. Commands enqueued afterwards continue the Seq sequence. The log
// comes from a file, so every command passes Enqueue's checks first; the
// first one that fails is returned as an error.
func Replay(spec Spec, log []Command, opts ...Option) (*Plane, error) {
	p, err := NewPlane(spec, opts...)
	if err != nil {
		return nil, err
	}
	for i, c := range log {
		if reason := p.invalid(c); reason != "" {
			p.Abort()
			return nil, fmt.Errorf("control: replay command %d (seq %d, %s): %s", i, c.Seq, c.Kind, reason)
		}
		if c.Seq > p.seq {
			p.seq = c.Seq
		}
	}
	p.queue = append(p.queue, log...)
	return p, nil
}

// Resume rebuilds a plane from a checkpoint: fast-forward to the
// checkpoint window replaying the command log, then verify every host
// against the keyframe. Options apply to the rebuilt plane (worker count
// may differ from the original run — determinism makes that safe).
func Resume(cp *trace.Checkpoint, opts ...Option) (*Plane, error) {
	var spec Spec
	if err := json.Unmarshal(cp.Config, &spec); err != nil {
		return nil, fmt.Errorf("control: decoding checkpoint config: %w", err)
	}
	if spec.Seed != cp.Seed {
		return nil, fmt.Errorf("control: checkpoint seed %d disagrees with config seed %d", cp.Seed, spec.Seed)
	}
	log, err := DecodeCommands(cp.Commands)
	if err != nil {
		return nil, err
	}
	p, err := Replay(spec, log, opts...)
	if err != nil {
		return nil, err
	}
	for uint64(p.session.Windows()) < cp.Window {
		if p.Advance() {
			continue
		}
		// The run can legitimately end exactly at the checkpoint window;
		// ending short of it means the config does not describe the run.
		if uint64(p.session.Windows()) < cp.Window {
			p.Abort()
			return nil, fmt.Errorf("control: run ended at window %d, before checkpoint window %d (config mismatch?)",
				p.session.Windows(), cp.Window)
		}
	}
	if got := int64(p.session.Floor()); got != cp.VTime {
		p.Abort()
		return nil, fmt.Errorf("control: resume reached window %d at vtime %d, checkpoint says %d",
			cp.Window, got, cp.VTime)
	}
	if err := verifyKeyframe(cp.Hosts, p.fleet.Keyframe()); err != nil {
		p.Abort()
		return nil, err
	}
	// Patches emitted during replay describe history the checkpoint's
	// consumers already saw; drop them so the feed starts at the resume.
	p.patches, p.dropped = nil, 0
	return p, nil
}

// verifyKeyframe compares the checkpoint keyframe against the rebuilt
// fleet, reporting the first divergent host and field group.
func verifyKeyframe(want, got []trace.CheckpointHost) error {
	if len(want) != len(got) {
		return fmt.Errorf("control: resume verification failed: checkpoint has %d hosts, rebuild has %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w == g {
			continue
		}
		switch {
		case w.Name != g.Name:
			return fmt.Errorf("control: resume verification failed at index %d: host %q became %q", i, w.Name, g.Name)
		case w.Clock != g.Clock:
			return fmt.Errorf("control: resume verification failed at %s: clock %d != %d", w.Name, g.Clock, w.Clock)
		case w.Seq != g.Seq:
			return fmt.Errorf("control: resume verification failed at %s: seq %d != %d", w.Name, g.Seq, w.Seq)
		case w.Pending != g.Pending || w.EventsHash != g.EventsHash:
			return fmt.Errorf("control: resume verification failed at %s: pending set diverged (%d events, hash %016x; checkpoint %d, %016x)",
				w.Name, g.Pending, g.EventsHash, w.Pending, w.EventsHash)
		case w.RandDraws != g.RandDraws:
			return fmt.Errorf("control: resume verification failed at %s: rng draws %d != %d", w.Name, g.RandDraws, w.RandDraws)
		case w.Digest != g.Digest:
			return fmt.Errorf("control: resume verification failed at %s: trace digest %016x != %016x", w.Name, g.Digest, w.Digest)
		case w.Down != g.Down:
			return fmt.Errorf("control: resume verification failed at %s: down %v != %v", w.Name, g.Down, w.Down)
		default:
			return fmt.Errorf("control: resume verification failed at %s: counters diverged", w.Name)
		}
	}
	return nil
}
