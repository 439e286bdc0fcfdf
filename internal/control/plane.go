package control

import (
	"fmt"

	"timerstudy/internal/fleet"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Spec is the serializable identity of a controlled run: everything needed
// to rebuild the fleet from scratch. It is the checkpoint's Config blob
// (JSON); fields deliberately mirror fleet.Topology minus the
// non-serializable parts (sink constructors), plus the run length.
type Spec struct {
	Webservers  int          `json:"webservers"`
	Desktops    int          `json:"desktops"`
	Seed        int64        `json:"seed"`
	Threads     int          `json:"threads,omitempty"`
	ThinkMean   sim.Duration `json:"think_mean,omitempty"`
	ServiceMean sim.Duration `json:"service_mean,omitempty"`
	// End is the run length in virtual time.
	End sim.Duration `json:"end"`
	// Link overrides the fabric default path when any field is non-zero.
	LinkLatency sim.Duration `json:"link_latency,omitempty"`
	LinkJitter  sim.Duration `json:"link_jitter,omitempty"`
	LinkLoss    float64      `json:"link_loss,omitempty"`
}

// topology resolves the spec into a buildable fleet topology.
func (s Spec) topology(newSink func(string) trace.Sink) (fleet.Topology, error) {
	if s.Webservers < 0 || s.Desktops < 0 || s.Webservers+s.Desktops == 0 {
		return fleet.Topology{}, fmt.Errorf("control: spec needs at least one host")
	}
	if s.End <= 0 {
		return fleet.Topology{}, fmt.Errorf("control: spec needs a positive end time")
	}
	top := fleet.Topology{
		Webservers:  s.Webservers,
		Desktops:    s.Desktops,
		Seed:        s.Seed,
		Threads:     s.Threads,
		ThinkMean:   s.ThinkMean,
		ServiceMean: s.ServiceMean,
		NewSink:     newSink,
	}
	if s.LinkLatency > 0 || s.LinkJitter > 0 || s.LinkLoss > 0 {
		top.Link = &netsim.PathConfig{
			Latency: s.LinkLatency,
			Jitter:  s.LinkJitter,
			Loss:    s.LinkLoss,
		}
	}
	return top, nil
}

// Patch is one entry of the plane's outward event feed: what happened to a
// command when its boundary came up. The feed is bounded; DrainPatches
// empties it.
type Patch struct {
	// Window is the boundary the command applied at.
	Window uint64 `json:"window"`
	// Seq is the command's accept sequence.
	Seq uint64 `json:"seq"`
	// Kind names the command kind.
	Kind string `json:"kind"`
	// Host is the target host name, or "*" for fleet-wide.
	Host string `json:"host"`
	// Applied reports whether any host accepted the command (a kill of an
	// already-down host, for example, is drained but not applied).
	Applied bool `json:"applied"`
	// Detail says why a drained command was not applied ("already down").
	Detail string `json:"detail,omitempty"`
}

// Snapshot is a cheap point-in-time summary of the plane, safe to take at
// any barrier.
type Snapshot struct {
	Window     uint64       `json:"window"`
	Floor      sim.Time     `json:"floor"`
	Done       bool         `json:"done"`
	Hosts      int          `json:"hosts"`
	HostsDown  int          `json:"hosts_down"`
	QueueDepth int          `json:"queue_depth"`
	LogLen     int          `json:"log_len"`
	Dropped    uint64       `json:"patches_dropped"`
	Digest     uint64       `json:"digest"`
	End        sim.Duration `json:"end"`
}

// Option configures a Plane.
type Option func(*Plane)

// WithWorkers sets the session worker count (default 1). Worker count
// never changes results — only wall-clock speed.
func WithWorkers(n int) Option { return func(p *Plane) { p.workers = n } }

// WithSink overrides the per-host sink constructor (default: HashSink,
// digest-only — what checkpoint verification needs).
func WithSink(f func(string) trace.Sink) Option { return func(p *Plane) { p.newSink = f } }

// Plane is the control plane over one fleet session. All methods are
// single-goroutine: the plane is driven by whoever owns the simulation
// loop, and concurrent callers (a serve command hub) must hand commands to
// that loop, not call Enqueue from another goroutine.
type Plane struct {
	spec    Spec
	workers int
	newSink func(string) trace.Sink

	fleet   *fleet.Fleet
	session *fleet.Session

	queue   []Command // accepted, not yet due; Seq order
	log     []Command // drained commands, the replay record
	patches []Patch
	dropped uint64
	seq     uint64
	done    bool
}

// NewPlane builds the fleet from the spec and opens its session.
func NewPlane(spec Spec, opts ...Option) (*Plane, error) {
	p := &Plane{
		spec:    spec,
		workers: 1,
		newSink: func(string) trace.Sink { return trace.NewHashSink() },
	}
	for _, o := range opts {
		o(p)
	}
	top, err := spec.topology(p.newSink)
	if err != nil {
		return nil, err
	}
	p.fleet = top.Build()
	p.session = p.fleet.StartSession(sim.Time(spec.End), p.workers)
	return p, nil
}

// Enqueue validates and stages a command, returning (false, reason) on
// rejection — the façade contract: the caller (an HTTP handler, a flag
// parser) learns immediately whether the command is well-formed, while
// application waits for the stamped boundary.
func (p *Plane) Enqueue(c Command) (bool, string) {
	if p.done {
		return false, "run complete"
	}
	if reason := p.invalid(c); reason != "" {
		return false, reason
	}
	if len(p.queue) >= maxQueue {
		return false, fmt.Sprintf("command queue full (%d pending)", len(p.queue))
	}
	now := uint64(p.session.Windows())
	if c.Window == 0 {
		c.Window = now
	} else if c.Window < now {
		return false, fmt.Sprintf("window %d already passed (current %d)", c.Window, now)
	}
	p.seq++
	c.Seq = p.seq
	p.queue = append(p.queue, c)
	return true, ""
}

// invalid returns why c cannot be applied to this plane's fleet, or "" if
// it can. Enqueue and Replay both check with it, so apply never sees an
// unknown kind or an out-of-range host.
func (p *Plane) invalid(c Command) string {
	if c.Kind < KindSpike || c.Kind >= kindEnd {
		return fmt.Sprintf("unknown command kind %d", c.Kind)
	}
	if c.Host < -1 || int(c.Host) >= len(p.fleet.Hosts()) {
		return fmt.Sprintf("host index %d out of range (fleet has %d)", c.Host, len(p.fleet.Hosts()))
	}
	switch c.Kind {
	case KindSpike:
		if c.Arg < 1 {
			return "spike factor must be >= 1"
		}
		if c.Dur <= 0 {
			return "spike needs a positive duration"
		}
	case KindKill, KindRestart:
		if c.Host < 0 {
			return c.Kind.String() + " needs a specific host"
		}
	case KindPolicy:
		if c.Arg != int64(fleet.PolicyFixed) && c.Arg != int64(fleet.PolicyAdaptive) {
			return fmt.Sprintf("unknown timeout policy %d", c.Arg)
		}
	case KindCoalesce:
		if c.Arg < 0 {
			return "coalescing window must be >= 0"
		}
	}
	return ""
}

// Pending returns a copy of the staged, not-yet-applied commands.
func (p *Plane) Pending() []Command {
	out := make([]Command, len(p.queue))
	copy(out, p.queue)
	return out
}

// Advance applies every due command at the current barrier, then steps the
// session one window. Returns false when the run is complete.
func (p *Plane) Advance() bool {
	if p.done {
		return false
	}
	p.applyDue()
	if !p.session.Step() {
		p.done = true
	}
	return !p.done
}

// applyDue drains commands whose window has arrived, in Seq order.
func (p *Plane) applyDue() {
	w := uint64(p.session.Windows())
	rest := p.queue[:0]
	for _, c := range p.queue {
		if c.Window > w {
			rest = append(rest, c)
			continue
		}
		p.apply(c)
	}
	for i := len(rest); i < len(p.queue); i++ {
		p.queue[i] = Command{}
	}
	p.queue = rest
}

// apply executes one command at the barrier and records it in the log and
// the patch feed. Application is deterministic: the command's effect
// depends only on (virtual state, command), never on wall clock.
func (p *Plane) apply(c Command) {
	hosts := p.fleet.Hosts()
	applied := false
	detail := ""
	hostName := "*"
	if c.Host >= 0 {
		hostName = hosts[c.Host].Name
	}
	switch c.Kind {
	case KindKill:
		if h := hosts[c.Host]; !h.Down {
			h.Kill()
			applied = true
		} else {
			detail = "already down"
		}
	case KindRestart:
		if h := hosts[c.Host]; h.Down {
			h.Restart(p.session.Floor())
			applied = true
		} else {
			detail = "not down"
		}
	default:
		d, ok := directive(c)
		if ok && c.Host >= 0 {
			applied = hosts[c.Host].Steer(d)
		} else if ok {
			for _, h := range hosts {
				if h.Steer(d) {
					applied = true
				}
			}
		}
	}
	p.log = append(p.log, c)
	p.addPatch(Patch{
		Window:  uint64(p.session.Windows()),
		Seq:     c.Seq,
		Kind:    c.Kind.String(),
		Host:    hostName,
		Applied: applied,
		Detail:  detail,
	})
}

// directive maps steering command kinds onto fleet directives.
func directive(c Command) (fleet.Directive, bool) {
	switch c.Kind {
	case KindSpike:
		return fleet.Directive{Kind: fleet.DirSpike, Arg: c.Arg, Dur: c.Dur}, true
	case KindPolicy:
		return fleet.Directive{Kind: fleet.DirPolicy, Arg: c.Arg}, true
	case KindCoalesce:
		return fleet.Directive{Kind: fleet.DirCoalesce, Arg: c.Arg}, true
	}
	return fleet.Directive{}, false
}

// addPatch appends to the bounded feed, evicting the oldest on overflow.
func (p *Plane) addPatch(pt Patch) {
	if len(p.patches) >= maxPatchBuffer {
		p.patches = p.patches[1:]
		p.dropped++
	}
	p.patches = append(p.patches, pt)
}

// DrainPatches empties and returns the patch feed.
func (p *Plane) DrainPatches() []Patch {
	out := p.patches
	p.patches = nil
	return out
}

// Snapshot summarizes the plane at the current barrier.
func (p *Plane) Snapshot() Snapshot {
	down := 0
	for _, h := range p.fleet.Hosts() {
		if h.Down {
			down++
		}
	}
	return Snapshot{
		Window:     uint64(p.session.Windows()),
		Floor:      p.session.Floor(),
		Done:       p.done,
		Hosts:      len(p.fleet.Hosts()),
		HostsDown:  down,
		QueueDepth: len(p.queue),
		LogLen:     len(p.log),
		Dropped:    p.dropped,
		Digest:     p.fleet.Digest(),
		End:        p.spec.End,
	}
}

// CommandLog returns a copy of the applied-command record — the replay
// input that, with the spec, reproduces this run bit for bit.
func (p *Plane) CommandLog() []Command {
	out := make([]Command, len(p.log))
	copy(out, p.log)
	return out
}

// Windows returns the completed window count.
func (p *Plane) Windows() int { return p.session.Windows() }

// Done reports whether the run has completed.
func (p *Plane) Done() bool { return p.done }

// Fleet exposes the underlying fleet (digests, counters, hosts).
func (p *Plane) Fleet() *fleet.Fleet { return p.fleet }

// Spec returns the plane's spec.
func (p *Plane) Spec() Spec { return p.spec }

// Finish drains any remaining windows and closes the run, returning the
// final statistics.
func (p *Plane) Finish() fleet.RunStats {
	for p.Advance() {
	}
	p.done = true
	return p.session.Finish()
}

// Abort tears the session down mid-run without completing it — the
// checkpoint-then-exit path.
func (p *Plane) Abort() fleet.RunStats {
	p.done = true
	return p.session.Close()
}
