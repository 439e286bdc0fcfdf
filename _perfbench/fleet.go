package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"timerstudy/internal/control"
	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// The fleet workload is a steered datacenter driven through the control
// plane with its default HashSink sinks: a fixed command script (spike,
// kill, policy, coalesce, restart), a checkpoint at the midpoint window, a
// run to the end, then ReadCheckpoint → control.Resume and a finish of the
// resumed plane, whose digest must equal the uninterrupted run's. A cycle
// does all of that; the run repeats cycles on the same seed until its time
// is up.

// fleetScale is the fleet workload's fixed configuration.
type fleetScale struct {
	Webservers int     `json:"webservers"`
	Desktops   int     `json:"desktops"`
	VirtualS   float64 `json:"virtual_s"`  // run length in virtual time
	Workers    int     `json:"workers"`    // session workers of the measured cycles (measuredProcs)
	Parallel   int     `json:"parallel"`   // workers of the traced parallel-speedup run (parallelWorkers)
	SetupReps  int     `json:"setup_reps"` // plane builds; setup_s is their median
	MinCycles  int     `json:"min_cycles"` // cycles run even when the time is up
}

func fleetScaleFor(o options) fleetScale {
	s := fleetScale{Webservers: 128, Desktops: 896, VirtualS: 0.25, Workers: measuredProcs,
		Parallel: parallelWorkers, SetupReps: 15, MinCycles: 3}
	if o.tiny {
		s.Webservers, s.Desktops, s.VirtualS, s.SetupReps, s.MinCycles = 4, 12, 0.05, 1, 1
	}
	return s
}

func (s fleetScale) spec(seed int64) control.Spec {
	return control.Spec{
		Webservers: s.Webservers,
		Desktops:   s.Desktops,
		Seed:       seed,
		End:        sim.Duration(s.VirtualS * float64(sim.Second)),
	}
}

// fleetWindowWidth is the default fabric's link latency, which is the
// session's lookahead window; the script places commands by window count.
const fleetWindowWidth = 200 * sim.Microsecond

// windows estimates the run's window count.
func (s fleetScale) windows() uint64 {
	return uint64(sim.Duration(s.VirtualS*float64(sim.Second)) / fleetWindowWidth)
}

// script is the fixed steering command list, stamped at fractions of the
// run; the restart lands after the checkpoint, so it crosses the
// checkpoint as a pending command.
func (s fleetScale) script() []control.Command {
	w := s.windows()
	victim := int32(1)                   // a webserver
	coalesced := int32(s.Webservers + 2) // a desktop
	return []control.Command{
		{Window: w / 10, Kind: control.KindSpike, Host: -1, Arg: 3, Dur: sim.Duration(s.VirtualS * float64(sim.Second) / 5)},
		{Window: w / 5, Kind: control.KindKill, Host: victim},
		{Window: 3 * w / 10, Kind: control.KindPolicy, Host: -1, Arg: fleet.PolicyAdaptive},
		{Window: 2 * w / 5, Kind: control.KindCoalesce, Host: coalesced, Arg: int64(100 * sim.Millisecond)},
		{Window: 3 * w / 5, Kind: control.KindRestart, Host: victim},
	}
}

// checkpointWindow is the midpoint barrier the checkpoint is taken at.
func (s fleetScale) checkpointWindow() int { return int(s.windows() / 2) }

// newPlane builds the steered plane with the script staged.
func (s fleetScale) newPlane(seed int64, workers int) (*control.Plane, error) {
	p, err := control.NewPlane(s.spec(seed), control.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	for _, c := range s.script() {
		if ok, reason := p.Enqueue(c); !ok {
			p.Abort()
			return nil, fmt.Errorf("fleet: script command %s rejected: %s", c.Kind, reason)
		}
	}
	return p, nil
}

// fleetCycle is one measured steered run plus its resume.
type fleetCycle struct {
	stats        fleet.RunStats
	run          time.Duration // uninterrupted run, checkpoint excluded
	checkpoint   time.Duration // Plane.Checkpoint + WriteCheckpoint
	cpBytes      int
	read         time.Duration // ReadCheckpoint
	resume       time.Duration // ReadCheckpoint + control.Resume
	replay       time.Duration // control.Resume alone
	digest       uint64
	allocs       uint64 // heap allocations during the run (traced runs only)
	advanceSpans []time.Duration
}

// runCycle runs the plane p to the end with a midpoint checkpoint, then
// resumes from the checkpoint and finishes the resumed plane. It returns
// one entry per operation: run, checkpoint, resume, digest match. tamper,
// when non-nil, may alter the checkpoint bytes before they are read back
// (the self-tests corrupt them).
func runCycle(sc fleetScale, p *control.Plane, tr *tracer, parent uint64, tamper func([]byte)) (fleetCycle, []error) {
	var c fleetCycle
	ops := make([]error, 0, 4)
	cpWindow := sc.checkpointWindow()
	var cpBuf bytes.Buffer
	var cpErr error = fmt.Errorf("fleet: run ended before checkpoint window %d", cpWindow)

	root := tr.begin("fleet.cycle", parent, false)
	runSpan := tr.begin("fleet.run", root.spanID(), true)
	t0 := time.Now()
	for {
		var a0 time.Time
		if tr != nil {
			a0 = time.Now()
		}
		more := p.Advance()
		if tr != nil {
			a1 := time.Now()
			c.advanceSpans = append(c.advanceSpans, a1.Sub(a0))
			tr.record("control.advance", runSpan.spanID(), a0, a1)
		}
		if p.Windows() == cpWindow && cpBuf.Len() == 0 {
			c0 := time.Now()
			cs := tr.begin("control.checkpoint", runSpan.spanID(), false)
			cpErr = trace.WriteCheckpoint(&cpBuf, p.Checkpoint("midpoint"))
			cs.end()
			c.checkpoint = time.Since(c0)
			c.cpBytes = cpBuf.Len()
		}
		if !more {
			break
		}
	}
	c.stats = p.Finish()
	c.run = time.Since(t0) - c.checkpoint
	sp := runSpan.end()
	c.allocs = sp.Allocs
	c.digest = p.Fleet().Digest()
	ops = append(ops, nil)
	ops = append(ops, cpErr)

	// Resume: read the checkpoint, rebuild and verify to the midpoint,
	// finish, and compare digests.
	if tamper != nil {
		tamper(cpBuf.Bytes())
	}
	rp, read, replay, err := resumeFrom(sc, cpBuf.Bytes(), tr, root.spanID())
	c.read, c.replay, c.resume = read, replay, read+replay
	ops = append(ops, err)
	if err != nil {
		ops = append(ops, fmt.Errorf("fleet: no resumed plane to compare"))
		root.end()
		return c, ops
	}
	fs := tr.begin("control.finish_resumed", root.spanID(), false)
	rp.Finish()
	fs.end()
	if got := rp.Fleet().Digest(); got != c.digest {
		ops = append(ops, fmt.Errorf("fleet: resumed run digest %016x, uninterrupted run %016x", got, c.digest))
	} else {
		ops = append(ops, nil)
	}
	root.end()
	return c, ops
}

// resumeFrom reads and resumes a checkpoint, timing both steps. A corrupt
// checkpoint is an error, and so is a panic on one: either counts as a
// failed operation.
func resumeFrom(sc fleetScale, cp []byte, tr *tracer, parent uint64) (p *control.Plane, read, replay time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("fleet: resume panicked: %v", r)
		}
	}()
	t0 := time.Now()
	rs := tr.begin("trace.read_checkpoint", parent, false)
	ck, err := trace.ReadCheckpoint(bytes.NewReader(cp))
	rs.end()
	read = time.Since(t0)
	if err != nil {
		return nil, read, 0, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	t1 := time.Now()
	ps := tr.begin("control.resume", parent, false)
	p, err = control.Resume(ck, control.WithWorkers(sc.Workers))
	ps.end()
	replay = time.Since(t1)
	if err != nil {
		return nil, read, replay, fmt.Errorf("fleet: resume: %w", err)
	}
	return p, read, replay, nil
}

// runFleet measures the fleet workload.
func runFleet(o options, rep *report, tr *tracer) (e2e, error) {
	sc := fleetScaleFor(o)

	// Set-up: build the 1024-host plane (topology, fabric, boot) and stage
	// the script. Repeated; setup_s is the median, and the last plane
	// serves the first cycle.
	var setups, setupWall []float64
	var p *control.Plane
	for i := 0; i < sc.SetupReps; i++ {
		if p != nil {
			p.Abort()
			p = nil
			runtime.GC()
		}
		sp := tr.begin("fleet.setup", 0, false)
		c0, t0 := cpuTime(), time.Now()
		var err error
		p, err = sc.newPlane(o.seed, sc.Workers)
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		sp.end()
		rep.op(err)
		if err != nil {
			return e2e{}, err
		}
	}

	dl := newDeadline(o.seconds)
	var rates, resumeMS, cpuPerEvent []float64
	var first fleetCycle
	for cycle := 0; cycle < sc.MinCycles || !dl.passed(); cycle++ {
		if p == nil {
			var err error
			p, err = sc.newPlane(o.seed, sc.Workers)
			rep.op(err)
			if err != nil {
				return e2e{}, err
			}
		}
		// Each cycle starts from a collected heap; handing the plane over
		// lets the finished run be collected while the resumed one runs.
		runtime.GC()
		cur := p
		p = nil
		c0 := cpuTime()
		c, ops := runCycle(sc, cur, tr, 0, nil)
		cpuPerEvent = append(cpuPerEvent, us(cpuTime()-c0)/float64(c.stats.Events))
		for _, err := range ops {
			rep.op(err)
		}
		if cycle == 0 {
			first = c
		} else {
			var err error
			if c.digest != first.digest {
				err = fmt.Errorf("fleet: cycle %d digest %016x, cycle 0 %016x", cycle, c.digest, first.digest)
			}
			rep.op(err)
		}
		rates = append(rates, float64(c.stats.Events)/c.run.Seconds())
		resumeMS = append(resumeMS, ms(c.resume))
	}

	m := e2e{setupS: median(setups), cpuUS: median(cpuPerEvent)}
	fmt.Fprintf(rep.out, "fleet: %d hosts, %d windows, %d events, %d messages per run, digest %016x\n",
		sc.Webservers+sc.Desktops, first.stats.Windows, first.stats.Events, first.stats.Sent, first.digest)
	rep.line("setup_s", m.setupS, "s", len(setups), "CPU time of the plane build: topology, fabric and host boot (median)")
	rep.line("setup_wall_s", median(setupWall), "s", len(setupWall), "wall time of the same (median)")
	rep.line("events_per_s", median(rates), "1/s", len(rates), "engine events per second, uninterrupted steered run (median)")
	rep.line("resume_s", median(resumeMS)/1e3, "s", len(resumeMS), "ReadCheckpoint + control.Resume to the checkpoint window (median)")
	rep.line("cpu_us_per_item", m.cpuUS, "us", len(cpuPerEvent), "CPU time of a whole cycle (run, checkpoint, resume, finish) per event of the run (median)")
	return m, nil
}
