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

// fleetBench is the "fleet" key a plain run merges into the -bench report.
type fleetBench struct {
	Hosts            int     `json:"hosts"`
	Webservers       int     `json:"webservers"`
	Desktops         int     `json:"desktops"`
	Workers          int     `json:"workers"`
	VirtualDuration  string  `json:"virtual_duration"`
	LookaheadUS      float64 `json:"lookahead_us"`
	Windows          int     `json:"windows"`
	Events           uint64  `json:"events"`
	CumulativeTimers uint64  `json:"cumulative_timers"`
	Records          uint64  `json:"records_total"`
	MessagesSent     uint64  `json:"messages_sent"`
	MessagesLost     uint64  `json:"messages_lost"`
	WallMSSerial     float64 `json:"wall_ms_serial"`
	WallMSParallel   float64 `json:"wall_ms_parallel"`
	EventsPerSec     float64 `json:"events_per_sec"`
	SpeedupVsWorkers float64 `json:"speedup_vs_workers"`
	Digest           string  `json:"digest"`
	Deterministic    bool    `json:"deterministic"`
}

// controlBench is the "control" key every other fleet run merges into the
// -bench report.
type controlBench struct {
	Hosts           int     `json:"hosts"`
	Workers         int     `json:"workers"`
	Windows         int     `json:"windows"`
	CommandsApplied int     `json:"commands_applied"`
	CheckpointMS    float64 `json:"checkpoint_ms"`
	CheckpointBytes int     `json:"checkpoint_bytes"`
	ResumeForwardMS float64 `json:"resume_fastforward_ms"`
	WallMS          float64 `json:"wall_ms"`
	Digest          string  `json:"digest"`
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
func openPlane(opts []control.Option) (*control.Plane, time.Duration, error) {
	switch {
	case *resumeFl != "":
		data, err := os.ReadFile(*resumeFl)
		if err != nil {
			return nil, 0, fmt.Errorf("-resume: %w", err)
		}
		cp, err := trace.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return nil, 0, fmt.Errorf("-resume: %w", err)
		}
		t0 := time.Now()
		p, err := control.Resume(cp, opts...)
		fwd := time.Since(t0)
		if err == nil {
			fmt.Printf("fleet: resumed %q at window %d (fast-forward %.0f ms, %d hosts verified)\n",
				cp.Label, cp.Window, fwd.Seconds()*1e3, len(cp.Hosts))
		}
		return p, fwd, err
	case *replayCmdFl != "":
		data, err := os.ReadFile(*replayCmdFl)
		if err != nil {
			return nil, 0, fmt.Errorf("-replay-commands: %w", err)
		}
		log, err := control.DecodeCommands(data)
		if err != nil {
			return nil, 0, fmt.Errorf("-replay-commands: %w", err)
		}
		p, err := control.Replay(fleetSpec(), log, opts...)
		if err == nil {
			fmt.Printf("fleet: replaying %d recorded commands\n", len(log))
		}
		return p, 0, err
	default:
		p, err := control.NewPlane(fleetSpec(), opts...)
		return p, 0, err
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
	p, resumeFwd, err := openPlane(opts)
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

	var (
		ckptWall time.Duration
		ckpt     bytes.Buffer
	)
	if *checkpointFl != "" {
		t0 := time.Now()
		cp := p.Checkpoint("experiments -checkpoint")
		err := trace.WriteCheckpoint(&ckpt, cp)
		ckptWall = time.Since(t0)
		if err == nil {
			err = os.WriteFile(*checkpointFl, ckpt.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -checkpoint: %v\n", err)
			return 1
		}
		fmt.Printf("fleet: checkpoint %s at window %d (%d hosts, %d bytes, %.1f ms)\n",
			*checkpointFl, cp.Window, len(cp.Hosts), ckpt.Len(), ckptWall.Seconds()*1e3)
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
	if *benchFl != "" {
		var key string
		var v any
		if plain {
			serial := refWall
			if serial == 0 {
				serial = wall
			}
			key, v = "fleet", fleetBench{
				Hosts:            spec.Webservers + spec.Desktops,
				Webservers:       spec.Webservers,
				Desktops:         spec.Desktops,
				Workers:          workers,
				VirtualDuration:  spec.End.String(),
				LookaheadUS:      float64(stats.Lookahead) / float64(sim.Microsecond),
				Windows:          stats.Windows,
				Events:           stats.Events,
				CumulativeTimers: c.ByOp[trace.OpSet],
				Records:          c.Total,
				MessagesSent:     stats.Sent,
				MessagesLost:     stats.Lost,
				WallMSSerial:     serial.Seconds() * 1e3,
				WallMSParallel:   wall.Seconds() * 1e3,
				EventsPerSec:     float64(stats.Events) / wall.Seconds(),
				SpeedupVsWorkers: serial.Seconds() / wall.Seconds(),
				Digest:           digest,
				Deterministic:    deterministic,
			}
		} else {
			key, v = "control", controlBench{
				Hosts:           spec.Webservers + spec.Desktops,
				Workers:         workers,
				Windows:         p.Windows(),
				CommandsApplied: len(p.CommandLog()),
				CheckpointMS:    ckptWall.Seconds() * 1e3,
				CheckpointBytes: ckpt.Len(),
				ResumeForwardMS: resumeFwd.Seconds() * 1e3,
				WallMS:          wall.Seconds() * 1e3,
				Digest:          digest,
			}
		}
		if err := mergeBenchKey(*benchFl, key, v); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchFl, err)
			return 1
		}
	}
	if !deterministic {
		return 1
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
