package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"timerstudy/internal/control"
	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// The steered-fleet mode: wrap the -fleet scenario in the control plane so
// a run can be perturbed (-steer, -poll), recorded (-record-commands),
// replayed (-replay-commands), interrupted (-checkpoint -stop-window) and
// resumed (-resume). Every path prints the same "control digest:" line the
// check.sh gates compare: a replayed or resumed run must land on the exact
// digest of the original.

var (
	listFl          = flag.Bool("list", false, "list scenarios, workloads and steering commands, then exit")
	steerFl         = flag.String("steer", "", "steer the fleet: comma-separated window:kind:host[:arg[:dur]] commands (see -list)")
	recordCmdFl     = flag.String("record-commands", "", "write the applied command log (TCMD) to this file at exit")
	replayCmdFl     = flag.String("replay-commands", "", "replay a recorded command log (TCMD) from this file")
	checkpointFl    = flag.String("checkpoint", "", "write a checkpoint (TCKP) to this file (at -stop-window, or at run end)")
	stopWindowFl    = flag.Int("stop-window", 0, "stop the controlled run at this window boundary (requires -checkpoint)")
	resumeFl        = flag.String("resume", "", "resume a controlled run from this checkpoint file")
	keyframeEveryFl = flag.Int("keyframe-every", 0, "automatic keyframe cadence in windows (0 = control-plane default)")
	pollFl          = flag.String("poll", "", "poll a timerstat -serve command hub at this base URL for steering commands")
)

// controlMode reports whether any control-plane flag asks for the steered
// fleet path instead of plain -fleet.
func controlMode() bool {
	return *steerFl != "" || *replayCmdFl != "" || *checkpointFl != "" ||
		*resumeFl != "" || *pollFl != "" || *recordCmdFl != ""
}

// controlBench is the "control" key merged into the -bench JSON report.
type controlBench struct {
	Hosts            int     `json:"hosts"`
	Workers          int     `json:"workers"`
	Windows          int     `json:"windows"`
	CommandsApplied  int     `json:"commands_applied"`
	CheckpointMS     float64 `json:"checkpoint_ms"`
	CheckpointBytes  int     `json:"checkpoint_bytes"`
	ResumeForwardMS  float64 `json:"resume_fastforward_ms"`
	WallMS           float64 `json:"wall_ms"`
	Digest           string  `json:"digest"`
}

// parseSteer turns the -steer spec into commands. Format, comma-separated:
//
//	window:kind:host[:arg[:dur]]
//
// window is the boundary to apply at (0 = next); kind is a control.Kind
// name; host is a fabric name or "*"; arg is numeric, with the mnemonics
// fixed/adaptive (policy) and Go durations (coalesce); dur is a Go
// duration.
func parseSteer(spec string, f *fleet.Fleet) ([]control.Command, error) {
	var cmds []control.Command
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("steer %q: want window:kind:host[:arg[:dur]]", field)
		}
		window, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("steer %q: bad window: %v", field, err)
		}
		kind, err := control.ParseKind(parts[1])
		if err != nil {
			return nil, fmt.Errorf("steer %q: %v", field, err)
		}
		host, err := resolveHost(f, parts[2])
		if err != nil {
			return nil, fmt.Errorf("steer %q: %v", field, err)
		}
		c := control.Command{Window: window, Kind: kind, Host: host}
		if len(parts) > 3 {
			c.Arg, err = parseArg(kind, parts[3])
			if err != nil {
				return nil, fmt.Errorf("steer %q: %v", field, err)
			}
		}
		if len(parts) > 4 {
			d, err := time.ParseDuration(parts[4])
			if err != nil {
				return nil, fmt.Errorf("steer %q: bad duration: %v", field, err)
			}
			c.Dur = sim.FromStd(d)
		}
		cmds = append(cmds, c)
	}
	return cmds, nil
}

// parseArg resolves a steer argument, accepting the kind's mnemonics.
func parseArg(kind control.Kind, s string) (int64, error) {
	switch kind {
	case control.KindPolicy:
		switch s {
		case "fixed":
			return fleet.PolicyFixed, nil
		case "adaptive":
			return fleet.PolicyAdaptive, nil
		}
	case control.KindCoalesce:
		// Coalescing windows read best as durations ("100ms"), falling
		// through to raw nanoseconds for scripts that compute them.
		if d, err := time.ParseDuration(s); err == nil {
			return int64(sim.FromStd(d)), nil
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad argument %q for %s", s, kind)
	}
	return n, nil
}

// resolveHost maps "*" or a fabric name to a control host index.
func resolveHost(f *fleet.Fleet, name string) (int32, error) {
	if name == "*" {
		return -1, nil
	}
	for i, h := range f.Hosts() {
		if h.Name == name {
			return int32(i), nil
		}
	}
	return 0, fmt.Errorf("unknown host %q", name)
}

// hubPoller drains a timerstat -serve command hub and reports verdicts
// back, making the dashboard's steering form drive this run.
type hubPoller struct {
	base   string
	client *http.Client
	last   time.Time
}

// hubStaged mirrors serve.StagedCommand without importing the service.
type hubStaged struct {
	Ticket uint64 `json:"ticket"`
	Kind   string `json:"kind"`
	Host   string `json:"host"`
	Arg    int64  `json:"arg"`
	DurMS  int64  `json:"dur_ms"`
	Window uint64 `json:"window"`
}

// hubResult mirrors serve.CommandResult.
type hubResult struct {
	Ticket   uint64 `json:"ticket"`
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Window   uint64 `json:"window,omitempty"`
}

// poll drains the hub once per pollInterval of wall time: barriers are
// microseconds apart, HTTP round trips are not.
func (hp *hubPoller) poll(p *control.Plane) {
	if hp == nil || time.Since(hp.last) < pollInterval {
		return
	}
	hp.last = time.Now()
	resp, err := hp.client.Post(hp.base+"/api/command/drain", "application/json", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -poll: %v\n", err)
		return
	}
	var drained struct {
		Commands []hubStaged `json:"commands"`
	}
	err = json.NewDecoder(resp.Body).Decode(&drained)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -poll: bad drain body: %v\n", err)
		return
	}
	results := make([]hubResult, 0, len(drained.Commands))
	for _, sc := range drained.Commands {
		res := hubResult{Ticket: sc.Ticket}
		c, err := hubCommand(p, sc)
		if err != nil {
			res.Reason = err.Error()
		} else if ok, reason := p.Enqueue(c); !ok {
			res.Reason = reason
		} else {
			res.Accepted = true
			pend := p.Pending()
			res.Seq = pend[len(pend)-1].Seq
			res.Window = pend[len(pend)-1].Window
		}
		results = append(results, res)
	}
	hp.report(p, results)
}

// hubCommand converts one hub entry to a control command.
func hubCommand(p *control.Plane, sc hubStaged) (control.Command, error) {
	kind, err := control.ParseKind(sc.Kind)
	if err != nil {
		return control.Command{}, err
	}
	host, err := resolveHost(p.Fleet(), sc.Host)
	if err != nil {
		return control.Command{}, err
	}
	return control.Command{
		Window: sc.Window,
		Kind:   kind,
		Host:   host,
		Arg:    sc.Arg,
		Dur:    sim.Duration(sc.DurMS) * sim.Millisecond,
	}, nil
}

// report posts verdicts, the current snapshot and fresh patches to the hub.
func (hp *hubPoller) report(p *control.Plane, results []hubResult) {
	snap, _ := json.Marshal(p.Snapshot())
	patches, _ := json.Marshal(p.DrainPatches())
	body, _ := json.Marshal(struct {
		Results  []hubResult     `json:"results,omitempty"`
		Snapshot json.RawMessage `json:"snapshot,omitempty"`
		Patches  json.RawMessage `json:"patches,omitempty"`
	}{results, snap, patches})
	resp, err := hp.client.Post(hp.base+"/api/command/report", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -poll: report: %v\n", err)
		return
	}
	resp.Body.Close()
}

// controlSpec builds the run identity from the fleet flags, mirroring
// runFleet's host split.
func controlSpec() (control.Spec, error) {
	hosts := *hostsFl
	if hosts < 1 {
		return control.Spec{}, fmt.Errorf("-hosts must be at least 1")
	}
	ws := hosts / 8
	if ws < 1 {
		ws = 1
	}
	return control.Spec{
		Webservers: ws,
		Desktops:   hosts - ws,
		Seed:       *seedFlag,
		End:        sim.FromStd(*fleetDurFl),
	}, nil
}

// runControl is the steered-fleet entry point; returns the exit code.
func runControl() int {
	workers := *fleetWorkersFl
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := []control.Option{control.WithWorkers(workers)}
	if *keyframeEveryFl > 0 {
		opts = append(opts, control.WithKeyframeEvery(*keyframeEveryFl))
	}

	var (
		p         *control.Plane
		err       error
		resumeFwd time.Duration
	)
	switch {
	case *resumeFl != "":
		data, rerr := os.ReadFile(*resumeFl)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: -resume: %v\n", rerr)
			return 1
		}
		cp, rerr := trace.ReadCheckpoint(bytes.NewReader(data))
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: -resume: %v\n", rerr)
			return 1
		}
		t0 := time.Now()
		p, err = control.Resume(cp, opts...)
		resumeFwd = time.Since(t0)
		if err == nil {
			fmt.Printf("control: resumed %q at window %d (fast-forward %.0f ms, %d hosts verified)\n",
				cp.Label, cp.Window, resumeFwd.Seconds()*1e3, len(cp.Hosts))
		}
	case *replayCmdFl != "":
		spec, serr := controlSpec()
		if serr != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", serr)
			return 2
		}
		data, rerr := os.ReadFile(*replayCmdFl)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: -replay-commands: %v\n", rerr)
			return 1
		}
		log, derr := control.DecodeCommands(data)
		if derr != nil {
			fmt.Fprintf(os.Stderr, "experiments: -replay-commands: %v\n", derr)
			return 1
		}
		p, err = control.Replay(spec, log, opts...)
		if err == nil {
			fmt.Printf("control: replaying %d recorded commands\n", len(log))
		}
	default:
		spec, serr := controlSpec()
		if serr != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", serr)
			return 2
		}
		p, err = control.NewPlane(spec, opts...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	spec := p.Spec()
	fmt.Printf("control: %d hosts (%d webservers, %d desktops), %v virtual, seed %d, workers %d\n",
		spec.Webservers+spec.Desktops, spec.Webservers, spec.Desktops,
		spec.End, spec.Seed, workers)

	if *steerFl != "" {
		cmds, serr := parseSteer(*steerFl, p.Fleet())
		if serr != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", serr)
			return 2
		}
		for _, c := range cmds {
			if ok, reason := p.Enqueue(c); !ok {
				fmt.Fprintf(os.Stderr, "experiments: -steer %s@%d: %s\n", c.Kind, c.Window, reason)
				return 2
			}
		}
		fmt.Printf("control: staged %d steering commands\n", len(cmds))
	}

	var poller *hubPoller
	if *pollFl != "" {
		poller = &hubPoller{base: strings.TrimRight(*pollFl, "/"), client: &http.Client{Timeout: pollInterval}}
		fmt.Printf("control: polling %s for commands\n", poller.base)
	}

	// The drive loop: poll, advance, until the stop window or the end.
	start := time.Now()
	stopped := false
	for {
		if *stopWindowFl > 0 && p.Windows() >= *stopWindowFl {
			stopped = true
			break
		}
		poller.poll(p)
		if !p.Advance() {
			break
		}
	}

	var (
		ckptWall  time.Duration
		ckptBytes int
	)
	if stopped {
		if *checkpointFl == "" {
			fmt.Fprintln(os.Stderr, "experiments: -stop-window without -checkpoint would discard the run")
			p.Abort()
			return 2
		}
		t0 := time.Now()
		cp := p.Checkpoint("experiments -checkpoint")
		var buf bytes.Buffer
		if err := trace.WriteCheckpoint(&buf, cp); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -checkpoint: %v\n", err)
			p.Abort()
			return 1
		}
		ckptWall = time.Since(t0)
		ckptBytes = buf.Len()
		if err := os.WriteFile(*checkpointFl, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -checkpoint: %v\n", err)
			p.Abort()
			return 1
		}
		p.Abort()
		fmt.Printf("control: checkpoint %s at window %d (%d hosts, %d bytes, %.1f ms)\n",
			*checkpointFl, cp.Window, len(cp.Hosts), ckptBytes, ckptWall.Seconds()*1e3)
		fmt.Printf("control stopped: window=%d resume with -resume %s\n", cp.Window, *checkpointFl)
		return emitControlArtifacts(p, workers, ckptWall, ckptBytes, resumeFwd, time.Since(start), stopped)
	}

	stats := p.Finish()
	wall := time.Since(start)
	digest := p.Fleet().Digest()
	fmt.Printf("control: %d windows, %d events, %d commands applied, traffic %d sent / %d delivered / %d lost\n",
		stats.Windows, stats.Events, len(p.CommandLog()), stats.Sent, stats.Delivered, stats.Lost)
	if *checkpointFl != "" {
		t0 := time.Now()
		cp := p.Checkpoint("experiments -checkpoint (end of run)")
		var buf bytes.Buffer
		if err := trace.WriteCheckpoint(&buf, cp); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -checkpoint: %v\n", err)
			return 1
		}
		ckptWall = time.Since(t0)
		ckptBytes = buf.Len()
		if err := os.WriteFile(*checkpointFl, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -checkpoint: %v\n", err)
			return 1
		}
		fmt.Printf("control: checkpoint %s at window %d (%d bytes, %.1f ms)\n",
			*checkpointFl, cp.Window, ckptBytes, ckptWall.Seconds()*1e3)
	}
	fmt.Printf("control digest: %016x windows=%d workers=%d\n", digest, stats.Windows, workers)
	return emitControlArtifacts(p, workers, ckptWall, ckptBytes, resumeFwd, wall, stopped)
}

// emitControlArtifacts writes the command log and the bench key; shared by
// the stopped and completed exits.
func emitControlArtifacts(p *control.Plane, workers int, ckptWall time.Duration, ckptBytes int, resumeFwd, wall time.Duration, stopped bool) int {
	if *recordCmdFl != "" {
		history := append(p.CommandLog(), p.Pending()...)
		if err := os.WriteFile(*recordCmdFl, control.EncodeCommands(history), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -record-commands: %v\n", err)
			return 1
		}
		fmt.Printf("control: recorded %d commands to %s\n", len(history), *recordCmdFl)
	}
	if *benchFl != "" {
		spec := p.Spec()
		digest := ""
		if !stopped {
			digest = fmt.Sprintf("%016x", p.Fleet().Digest())
		}
		cb := controlBench{
			Hosts:           spec.Webservers + spec.Desktops,
			Workers:         workers,
			Windows:         p.Windows(),
			CommandsApplied: len(p.CommandLog()),
			CheckpointMS:    ckptWall.Seconds() * 1e3,
			CheckpointBytes: ckptBytes,
			ResumeForwardMS: resumeFwd.Seconds() * 1e3,
			WallMS:          wall.Seconds() * 1e3,
			Digest:          digest,
		}
		if err := mergeBenchKey(*benchFl, "control", cb); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchFl, err)
			return 1
		}
	}
	return 0
}

// runList enumerates what this binary can run — the -list satellite: no
// more guessing scenario or command names from error messages.
func runList() int {
	fmt.Println("scenarios:")
	fmt.Println("  (default)      the paper's evaluation traces (Tables 1-3, Figures 2-11)")
	fmt.Println("  -fleet         parallel datacenter fleet with determinism verification")
	fmt.Println("  -serve-bench   loopback live-service ingest/query benchmark")
	fmt.Println("  -steer/-poll/-checkpoint/-resume/-replay-commands")
	fmt.Println("                 steered fleet under the deterministic control plane")
	fmt.Println()
	fmt.Println("workloads (single-host traces):")
	for _, os := range []struct {
		name  string
		names []string
	}{{"linux", workloads.LinuxWorkloads()}, {"vista", workloads.VistaWorkloads()}} {
		for _, w := range os.names {
			fmt.Printf("  %s/%s\n", os.name, w)
		}
	}
	fmt.Println()
	fmt.Println("steering commands (window:kind:host[:arg[:dur]], host \"*\" = fleet-wide):")
	fmt.Println("  spike     multiply desktop request rate by arg for dur (e.g. 10:spike:*:4:500ms)")
	fmt.Println("  kill      power a host off at the boundary (20:kill:ws-0000)")
	fmt.Println("  restart   power a killed host back on (60:restart:ws-0000)")
	fmt.Println("  policy    request-timeout policy: fixed | adaptive (25:policy:*:adaptive)")
	fmt.Println("  coalesce  periodic-timer coalescing window (30:coalesce:*:100ms)")
	return 0
}
