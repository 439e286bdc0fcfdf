// Command timertrace runs one of the paper's workloads on a simulated
// Linux or Vista system and writes the resulting binary timer trace — the
// equivalent of the paper's relayfs/ETW collection step.
//
// The records spill to the output file in the chunked v2 stream format
// while the simulation runs, so memory stays bounded by live timers and the
// trace can exceed RAM. With -emit the same stream is also sent to a live
// timerstat -serve service in the same pass.
//
// Usage:
//
//	timertrace -os linux -workload firefox -duration 30m -seed 1 -o firefox.trace
//	timertrace -os vista -workload desktop -o desktop.trace
//
// Workloads: idle, skype, firefox, webserver; the Vista personality also
// offers "desktop" (the 90-second Figure 1 trace).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/version"
	"timerstudy/internal/workloads"
)

func run() int {
	osName := flag.String("os", "linux", "personality: linux or vista")
	workload := flag.String("workload", "idle", "idle, skype, firefox, webserver, desktop (vista only)")
	duration := flag.Duration("duration", 30*time.Minute, "virtual trace duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("o", "", "output trace file (default <os>-<workload>.trace)")
	emit := flag.String("emit", "", "also stream the trace to a live timerstat -serve service at this base URL")
	emitStream := flag.String("emit-stream", "", "stream name for -emit (default <os>-<workload>)")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return 0
	}

	cfg := workloads.Config{Seed: *seed, Duration: sim.FromStd(*duration)}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.trace", *osName, *workload)
	}

	streamName := *emitStream
	if streamName == "" {
		streamName = fmt.Sprintf("%s-%s", *osName, *workload)
	}

	// Check the names before the output file is created: an unknown
	// workload would otherwise panic inside the run and leave it empty.
	var runWorkload func(string, workloads.Config) *workloads.Result
	var names []string
	switch *osName {
	case "linux":
		runWorkload, names = workloads.RunLinux, workloads.LinuxWorkloads()
	case "vista":
		runWorkload, names = workloads.RunVista, append(workloads.VistaWorkloads(), workloads.Desktop)
	default:
		fmt.Fprintf(os.Stderr, "timertrace: unknown personality %q\n", *osName)
		return 2
	}
	if !slices.Contains(names, *workload) {
		fmt.Fprintf(os.Stderr, "timertrace: unknown %s workload %q (want one of %v)\n", *osName, *workload, names)
		return 2
	}

	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "timertrace: %v\n", err)
		return 1
	}
	sw := trace.NewStreamWriter(f)
	cfg.Sink = sw
	var hs *trace.HTTPSink
	if *emit != "" {
		// Single pass: tee the v2 stream to the live service while the
		// simulation writes the file.
		hs, err = trace.NewHTTPSink(*emit, streamName, trace.HTTPSinkOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "timertrace: -emit: %v\n", err)
			return 1
		}
		cfg.Sink = trace.Tee(sw, hs)
	}

	res := runWorkload(*workload, cfg)
	if hs != nil {
		if err := hs.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "timertrace: -emit: %v\n", err)
			return 1
		}
	}
	if err := sw.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "timertrace: writing %s: %v\n", path, err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "timertrace: closing %s: %v\n", path, err)
		return 1
	}

	c := res.Counters
	fmt.Printf("%s/%s: %v of virtual time, %d records (%d dropped) -> %s\n",
		res.OS, res.Name, res.Duration, c.Total-c.Dropped, c.Dropped, path)

	// Summarize from the written file: the records were never held in
	// memory, so replay them.
	s, err := func() (analysis.Summary, error) {
		rf, err := os.Open(path)
		if err != nil {
			return analysis.Summary{}, err
		}
		defer rf.Close()
		src, err := trace.NewStreamReader(rf)
		if err != nil {
			return analysis.Summary{}, err
		}
		rep, err := analysis.Pipeline{}.Run(src)
		if err != nil {
			return analysis.Summary{}, err
		}
		return rep.Summary, nil
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "timertrace: reading back %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("timers=%d concurrency=%d accesses=%d user=%d kernel=%d set=%d expired=%d canceled=%d\n",
		s.Timers, s.Concurrency, s.Accesses, s.UserSpace, s.Kernel, s.Set, s.Expired, s.Canceled)
	return 0
}

func main() {
	os.Exit(run())
}
