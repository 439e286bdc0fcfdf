package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// The -fleet mode: instead of the paper's nine single-host traces, simulate
// a datacenter of them — N webserver + 7N desktop hosts exchanging request
// traffic over the netsim fabric, advanced in parallel with conservative-
// lookahead windows. The run always includes a workers=1 pass whose fleet
// digest must match the parallel pass bit-for-bit; a mismatch is a hard
// failure (the determinism gate check.sh relies on).

// fleetBench is the "fleet" key merged into the -bench JSON report.
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

// fleetPass builds the topology fresh and runs it once, returning the run
// stats, the fleet digest and the wall time.
func fleetPass(top fleet.Topology, end sim.Time, workers int) (fleet.RunStats, uint64, uint64, uint64, time.Duration) {
	f := top.Build()
	t0 := time.Now()
	stats := f.Run(end, workers)
	wall := time.Since(t0)
	c := f.Counters()
	return stats, f.Digest(), c.ByOp[trace.OpSet], c.Total, wall
}

// runFleet is the -fleet entry point; returns the process exit code.
func runFleet() int {
	hosts := *hostsFl
	if hosts < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -hosts must be at least 1")
		return 2
	}
	ws := hosts / 8
	if ws < 1 {
		ws = 1
	}
	pc := hosts - ws
	workers := *fleetWorkersFl
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dur := sim.FromStd(*fleetDurFl)
	end := sim.Time(dur)
	top := fleet.Topology{
		Webservers: ws,
		Desktops:   pc,
		Seed:       *seedFlag,
	}

	fmt.Printf("fleet: %d hosts (%d webservers, %d desktops), %v virtual, seed %d\n",
		hosts, ws, pc, dur, *seedFlag)

	// -emit streams each host's trace to the live service, teed with the
	// digest HashSink, on the final pass only (two emitting passes would
	// collide on stream names).
	var emitClose func()
	serialTop := top
	if *emitFl != "" && workers <= 1 {
		serialTop.NewSink, emitClose = fleetEmitSinks(*emitFl)
	}
	stats, digest, sets, records, wallSerial := fleetPass(serialTop, end, 1)
	if emitClose != nil {
		emitClose()
	}
	wallParallel := wallSerial
	deterministic := true
	if workers > 1 {
		ptop := top
		emitClose = nil
		if *emitFl != "" {
			ptop.NewSink, emitClose = fleetEmitSinks(*emitFl)
		}
		pstats, pdigest, _, _, pw := fleetPass(ptop, end, workers)
		if emitClose != nil {
			emitClose()
		}
		wallParallel = pw
		deterministic = pdigest == digest && pstats == stats
		if !deterministic {
			fmt.Fprintf(os.Stderr,
				"experiments: FLEET NONDETERMINISM: workers=1 digest %016x %+v vs workers=%d digest %016x %+v\n",
				digest, stats, workers, pdigest, pstats)
		}
	}

	evPerSec := float64(stats.Events) / wallParallel.Seconds()
	speedup := wallSerial.Seconds() / wallParallel.Seconds()
	fmt.Printf("fleet: %d windows (lookahead %v), %d events, %d cumulative timer sets, %d records\n",
		stats.Windows, stats.Lookahead, stats.Events, sets, records)
	fmt.Printf("fleet: traffic %d sent / %d delivered / %d lost\n", stats.Sent, stats.Delivered, stats.Lost)
	fmt.Printf("fleet: serial %.0f ms, workers=%d %.0f ms, %.2fx, %.0f events/sec\n",
		wallSerial.Seconds()*1e3, workers, wallParallel.Seconds()*1e3, speedup, evPerSec)
	fmt.Printf("fleet digest: %016x workers=%d deterministic=%v\n", digest, workers, deterministic)

	if *benchFl != "" {
		fb := fleetBench{
			Hosts:            hosts,
			Webservers:       ws,
			Desktops:         pc,
			Workers:          workers,
			VirtualDuration:  dur.String(),
			LookaheadUS:      float64(stats.Lookahead) / float64(sim.Microsecond),
			Windows:          stats.Windows,
			Events:           stats.Events,
			CumulativeTimers: sets,
			Records:          records,
			MessagesSent:     stats.Sent,
			MessagesLost:     stats.Lost,
			WallMSSerial:     wallSerial.Seconds() * 1e3,
			WallMSParallel:   wallParallel.Seconds() * 1e3,
			EventsPerSec:     evPerSec,
			SpeedupVsWorkers: speedup,
			Digest:           fmt.Sprintf("%016x", digest),
			Deterministic:    deterministic,
		}
		if err := mergeFleetBench(*benchFl, fb); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchFl, err)
			return 1
		}
	}
	if !deterministic {
		return 1
	}
	return 0
}

// fleetEmitSinks returns a Topology.NewSink that tees each host's digest
// HashSink with an HTTPSink streaming to the live service, plus a closer
// that flushes every stream's counters footer after the run.
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

// mergeFleetBench sets the "fleet" key in a benchmark JSON report (created
// if absent), preserving other keys — the same merge contract timerlint
// uses for "lint".
func mergeFleetBench(path string, fb fleetBench) error {
	report := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	report["fleet"] = fb
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
