package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"timerstudy/internal/control"
	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// The -fleet mode: instead of the paper's nine single-host traces, simulate
// a datacenter of them — 1/8 webservers, the rest desktops, exchanging
// request traffic over the netsim fabric, advanced in parallel with
// conservative-lookahead windows — under the deterministic control plane.
// One code path serves every variant: plain, steered (-steer, -poll),
// recorded (-record-commands), replayed (-replay-commands), interrupted
// (-checkpoint -stop-window) and resumed (-resume). Every completed run
// prints one "fleet digest:" line the check.sh gates compare: a replayed
// or resumed run must land on the exact digest of the original. A plain
// run at workers > 1 first finishes a workers=1 reference plane on the
// same spec and fails (exit 1) unless both agree bit for bit.

var (
	steerFl      = flag.String("steer", "", "fleet: steer the run with comma-separated window:kind:host[:arg[:dur]] commands (see -list)")
	recordCmdFl  = flag.String("record-commands", "", "fleet: write the applied command log (TCMD) to this file at exit")
	replayCmdFl  = flag.String("replay-commands", "", "fleet: replay a recorded command log (TCMD) from this file")
	checkpointFl = flag.String("checkpoint", "", "fleet: write a checkpoint (TCKP) to this file (at -stop-window, or at run end)")
	stopWindowFl = flag.Int("stop-window", 0, "fleet: stop the run at this window boundary (requires -checkpoint)")
	resumeFl     = flag.String("resume", "", "fleet: resume a run from this checkpoint file (it carries the spec and command log)")
	pollFl       = flag.String("poll", "", "fleet: poll a timerstat -serve command hub at this base URL for steering commands")
)

// fleetCounts is the key a completed -fleet run merges into the -bench
// report: "fleet" for a plain run, "control" for a steered, replayed or
// resumed one. Every field is a pure function of the spec and the command
// log, so it is the same at any worker count.
type fleetCounts struct {
	Hosts             int    `json:"hosts"`
	VirtualDuration   string `json:"virtual_duration"`
	Windows           int    `json:"windows"`
	Events            uint64 `json:"events"`
	HostAdvances      uint64 `json:"host_advances"`
	CumulativeTimers  uint64 `json:"cumulative_timers"`
	Records           uint64 `json:"records_total"`
	MessagesSent      uint64 `json:"messages_sent"`
	MessagesDelivered uint64 `json:"messages_delivered"`
	MessagesLost      uint64 `json:"messages_lost"`
	CommandsApplied   int    `json:"commands_applied,omitempty"`
	CheckpointBytes   int    `json:"checkpoint_bytes,omitempty"`
	Digest            string `json:"digest"`
}

// fleetSpec builds the run identity from the fleet flags: 1/8 of the hosts
// (at least one) are webservers, the rest desktops.
func fleetSpec() control.Spec {
	ws := max(*hostsFl/8, 1)
	return control.Spec{
		Webservers: ws,
		Desktops:   *hostsFl - ws,
		Seed:       *seedFlag,
		End:        sim.FromStd(*fleetDurFl),
	}
}

// openPlane builds the plane the flags describe: resumed from a checkpoint,
// replaying a recorded command log, or fresh from the fleet flags.
func openPlane(opts []control.Option) (*control.Plane, error) {
	switch {
	case *resumeFl != "":
		data, err := os.ReadFile(*resumeFl)
		if err != nil {
			return nil, fmt.Errorf("-resume: %w", err)
		}
		cp, err := trace.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("-resume: %w", err)
		}
		p, err := control.Resume(cp, opts...)
		if err == nil {
			fmt.Printf("fleet: resumed %q at window %d (%d hosts verified)\n",
				cp.Label, cp.Window, len(cp.Hosts))
		}
		return p, err
	case *replayCmdFl != "":
		data, err := os.ReadFile(*replayCmdFl)
		if err != nil {
			return nil, fmt.Errorf("-replay-commands: %w", err)
		}
		log, err := control.DecodeCommands(data)
		if err != nil {
			return nil, fmt.Errorf("-replay-commands: %w", err)
		}
		p, err := control.Replay(fleetSpec(), log, opts...)
		if err == nil {
			fmt.Printf("fleet: replaying %d recorded commands\n", len(log))
		}
		return p, err
	default:
		return control.NewPlane(fleetSpec(), opts...)
	}
}

// runFleet is the -fleet entry point; returns the process exit code.
func runFleet() int {
	if *hostsFl < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -hosts must be at least 1")
		return 2
	}
	workers := *fleetWorkersFl
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A plain run (no command source, no stop) is checked against a
	// workers=1 reference plane on the same spec, finished first.
	plain := *steerFl == "" && *replayCmdFl == "" && *resumeFl == "" &&
		*pollFl == "" && *stopWindowFl == 0
	var (
		refStats  fleet.RunStats
		refDigest uint64
		refWall   time.Duration
	)
	if plain && workers > 1 {
		ref, err := control.NewPlane(fleetSpec())
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		t0 := time.Now()
		refStats = ref.Finish()
		refWall = time.Since(t0)
		refDigest = ref.Fleet().Digest()
	}

	opts := []control.Option{control.WithWorkers(workers)}
	if *emitFl != "" {
		newSink, closeEmit := fleetEmitSinks(*emitFl)
		defer closeEmit()
		opts = append(opts, control.WithSink(newSink))
	}
	p, err := openPlane(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	spec := p.Spec()
	fmt.Printf("fleet: %d hosts (%d webservers, %d desktops), %v virtual, seed %d, workers %d\n",
		spec.Webservers+spec.Desktops, spec.Webservers, spec.Desktops,
		spec.End, spec.Seed, workers)

	if *steerFl != "" {
		cmds, err := parseSteer(*steerFl, p.Fleet())
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		for _, c := range cmds {
			if ok, reason := p.Enqueue(c); !ok {
				fmt.Fprintf(os.Stderr, "experiments: -steer %s@%d: %s\n", c.Kind, c.Window, reason)
				return 2
			}
		}
		fmt.Printf("fleet: staged %d steering commands\n", len(cmds))
	}

	var poller *hubPoller
	if *pollFl != "" {
		poller = &hubPoller{base: strings.TrimRight(*pollFl, "/"), client: &http.Client{Timeout: pollInterval}}
		fmt.Printf("fleet: polling %s for commands\n", poller.base)
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
	var stats fleet.RunStats
	if !stopped {
		stats = p.Finish()
	}
	wall := time.Since(start)

	var ckpt bytes.Buffer
	if *checkpointFl != "" {
		cp := p.Checkpoint("experiments -checkpoint")
		err := trace.WriteCheckpoint(&ckpt, cp)
		if err == nil {
			err = os.WriteFile(*checkpointFl, ckpt.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -checkpoint: %v\n", err)
			return 1
		}
		fmt.Printf("fleet: checkpoint %s at window %d (%d hosts, %d bytes)\n",
			*checkpointFl, cp.Window, len(cp.Hosts), ckpt.Len())
	}

	digest := ""
	deterministic := true
	c := p.Fleet().Counters()
	if stopped {
		p.Abort()
		fmt.Printf("fleet stopped: window=%d resume with -resume %s\n", p.Windows(), *checkpointFl)
	} else {
		digest = fmt.Sprintf("%016x", p.Fleet().Digest())
		fmt.Printf("fleet: %d windows (lookahead %v), %d events, %d cumulative timer sets, %d records, %d commands applied\n",
			stats.Windows, stats.Lookahead, stats.Events, c.ByOp[trace.OpSet], c.Total, len(p.CommandLog()))
		fmt.Printf("fleet: traffic %d sent / %d delivered / %d lost\n", stats.Sent, stats.Delivered, stats.Lost)
		if refWall > 0 {
			fmt.Printf("fleet: serial %.0f ms, workers=%d %.0f ms, %.2fx, %.0f events/sec\n",
				refWall.Seconds()*1e3, workers, wall.Seconds()*1e3,
				refWall.Seconds()/wall.Seconds(), float64(stats.Events)/wall.Seconds())
			deterministic = refDigest == p.Fleet().Digest() && refStats == stats
			if !deterministic {
				fmt.Fprintf(os.Stderr,
					"experiments: FLEET NONDETERMINISM: workers=1 digest %016x %+v vs workers=%d digest %s %+v\n",
					refDigest, refStats, workers, digest, stats)
			}
		}
		fmt.Printf("fleet digest: %s windows=%d workers=%d\n", digest, stats.Windows, workers)
	}

	if *recordCmdFl != "" {
		history := append(p.CommandLog(), p.Pending()...)
		if err := os.WriteFile(*recordCmdFl, control.EncodeCommands(history), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -record-commands: %v\n", err)
			return 1
		}
		fmt.Printf("fleet: recorded %d commands to %s\n", len(history), *recordCmdFl)
	}
	// The mode table rejects -bench with -stop-window, so a report key
	// always comes from a completed run that passed its determinism check.
	if !deterministic {
		return 1
	}
	if *benchFl != "" {
		key := "control"
		if plain {
			key = "fleet"
		}
		if err := mergeBenchKey(*benchFl, key, fleetCounts{
			Hosts:             spec.Webservers + spec.Desktops,
			VirtualDuration:   spec.End.String(),
			Windows:           stats.Windows,
			Events:            stats.Events,
			HostAdvances:      stats.HostAdvances,
			CumulativeTimers:  c.ByOp[trace.OpSet],
			Records:           c.Total,
			MessagesSent:      stats.Sent,
			MessagesDelivered: stats.Delivered,
			MessagesLost:      stats.Lost,
			CommandsApplied:   len(p.CommandLog()),
			CheckpointBytes:   ckpt.Len(),
			Digest:            digest,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchFl, err)
			return 1
		}
	}
	return 0
}

// fleetEmitSinks returns a per-host sink constructor that tees each host's
// digest HashSink with an HTTPSink streaming to the live service, plus a
// closer that flushes every stream's counters footer after the run.
func fleetEmitSinks(url string) (func(string) trace.Sink, func()) {
	var sinks []*trace.HTTPSink
	newSink := func(host string) trace.Sink {
		hs, err := trace.NewHTTPSink(url, "fleet-"+host, trace.HTTPSinkOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", host, err)
			return trace.NewHashSink()
		}
		sinks = append(sinks, hs)
		return trace.Tee(trace.NewHashSink(), hs)
	}
	closeAll := func() {
		for _, hs := range sinks {
			if err := hs.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -emit: %v\n", err)
			}
		}
	}
	return newSink, closeAll
}
