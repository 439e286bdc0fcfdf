// Command experiments regenerates every table and figure in the paper's
// evaluation from the simulated systems, printing them in order. Its output
// is the basis of EXPERIMENTS.md.
//
// The ten evaluation traces (four Linux + four Vista workloads, the 90 s
// Vista desktop behind Figure 1, and the Section 5.2 webserver trace) are
// independent deterministic simulations, so they fan out across a worker
// pool and each trace is reduced to its tables/figures in the worker via
// analysis.Pipeline — the trace buffer is released before the next run
// starts on that worker. Output is byte-identical at any worker count.
//
// Usage:
//
//	experiments              # full 30-minute virtual traces (the paper's length)
//	experiments -quick       # 2-minute traces for a fast look
//	experiments -j 4         # cap the worker pool (default GOMAXPROCS)
//	experiments -bench f.json # also write machine-readable wall-clock timings
//	experiments -fleet       # the datacenter fleet under the control plane
//	experiments -list        # every mode, its flags, workloads and commands
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/core"
	"timerstudy/internal/dispatch"
	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/layers"
	"timerstudy/internal/sim"
	"timerstudy/internal/softtimer"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

var (
	durFlag   = flag.Duration("duration", 30*time.Minute, "virtual duration per trace")
	seedFlag  = flag.Int64("seed", 1, "simulation seed")
	quick     = flag.Bool("quick", false, "use 2-minute traces")
	workersFl = flag.Int("j", 0, "workload worker pool size (0 = GOMAXPROCS)")
	benchFl   = flag.String("bench", "", "write a machine-readable timing report (JSON) to this file")
	spillFl   = flag.Bool("spill", false, "stream each trace to a temp file during the run and analyze it from disk (bounded memory)")
	strictFl  = flag.Bool("strict", false, "exit nonzero if any run dropped trace records")
	cpuproFl  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memproFl  = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")

	hostsFl        = flag.Int("hosts", 1024, "fleet: total host count (1/8 webservers, rest desktops)")
	fleetWorkersFl = flag.Int("fleet-workers", 0, "fleet: parallel host workers (0 = GOMAXPROCS); a plain run at >1 first runs a workers=1 reference pass")
	fleetDurFl     = flag.Duration("fleet-duration", 30*time.Second, "fleet: virtual duration")
)

// artifacts is everything we keep from one workload run after its trace is
// released.
type artifacts struct {
	name    string
	summary analysis.Summary
	shares  analysis.ClassShares
	values  []analysis.ValueEntry
	valuesF []analysis.ValueEntry // filtered (Figure 5)
	valuesU []analysis.ValueEntry // user-only (Figure 6)
	scatter []analysis.ScatterPoint
	series  []analysis.SeriesPoint // Xorg select (idle only)
	origins []analysis.OriginRow
}

// analyze reduces one finished run to its artifacts in a single pass over
// the record source (summary + every histogram at once). The source may be
// the run's own in-memory buffer or a spill file replaying from disk; the
// artifacts are byte-identical either way.
func analyze(res *workloads.Result, src trace.Source) (artifacts, error) {
	sOpts := analysis.DefaultScatterOptions()
	sOpts.ExcludeProcesses = []string{"Xorg", "icewm"}
	rep, err := analysis.Pipeline{
		Values: analysis.ValueOptions{JiffyBinKernel: res.OS == "linux", MinSharePercent: 2},
		ValuesFiltered: &analysis.ValueOptions{
			JiffyBinKernel: res.OS == "linux", MinSharePercent: 2,
			CollapseCountdowns: true, ExcludeProcesses: []string{"Xorg", "icewm"},
		},
		ValuesUser: &analysis.ValueOptions{
			UserOnly: true, MinSharePercent: 2, CollapseCountdowns: true,
		},
		Scatter:       &sOpts,
		SeriesProcess: "Xorg",
		OriginMinSets: 50,
	}.Run(src)
	if err != nil {
		return artifacts{}, err
	}
	return artifacts{
		name:    res.Name,
		summary: rep.Summary,
		shares:  rep.Shares,
		values:  rep.Values,
		valuesF: rep.ValuesFiltered,
		valuesU: rep.ValuesUser,
		scatter: rep.Scatter,
		series:  rep.Series,
		origins: rep.Origins,
	}, nil
}

// runSpec executes one workload spec and hands its records to reduce as a
// one-shot trace.Source. In-memory mode the source is the run's own buffer.
// In spill mode the records stream to a temp file during the run (the buffer
// is never built) and replay from disk, so peak memory is bounded by live
// timers, not trace length; the file is removed before returning.
func runSpec(spec workloads.Spec, spill bool, reduce func(res *workloads.Result, src trace.Source) error) (*workloads.Result, error) {
	emit := *emitFl
	stream := fmt.Sprintf("%s-%s", spec.OS, spec.Name)
	if !spill {
		res := spec.Run()
		if emit != "" {
			// Replay the in-memory trace to the live service; export is
			// best-effort and never fails the experiment.
			emitTrace(emit, stream, res.Trace)
		}
		return res, reduce(res, res.Trace)
	}
	f, err := os.CreateTemp("", "timerstudy-spill-*.trace")
	if err != nil {
		return nil, err
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()
	sw := trace.NewStreamWriter(f)
	spec.Cfg.Sink = sw
	var hs *trace.HTTPSink
	if emit != "" {
		// Single pass: tee the spill stream to the live service while the
		// simulation writes it.
		if hs, err = trace.NewHTTPSink(emit, stream, trace.HTTPSinkOptions{}); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", stream, err)
			hs = nil
		} else {
			spec.Cfg.Sink = trace.Tee(sw, hs)
		}
	}
	res := spec.Run()
	if hs != nil {
		if err := hs.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", stream, err)
		}
	}
	if err := sw.Close(); err != nil {
		return nil, fmt.Errorf("spill encode: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	src, err := trace.NewStreamReader(f)
	if err != nil {
		return nil, fmt.Errorf("spill replay: %w", err)
	}
	return res, reduce(res, src)
}

// experimentSet holds every artifact the figure writer needs, in workload
// order. It is a pure function of (seed, dur) — worker count never changes
// its contents, which TestParallelMatchesSerial asserts byte-for-byte.
type experimentSet struct {
	dur          sim.Duration
	names        []string
	linux        []artifacts
	vista        []artifacts
	desktopRates []analysis.RateSeries
	relations    []analysis.InferredRelation
	dropped      []droppedRun
}

// droppedRun records a workload whose trace buffer overflowed: its analyses
// silently cover only the stored prefix.
type droppedRun struct {
	os, name       string
	dropped, total uint64
}

// warnDropped prints a warning per overflowed run and reports whether any
// run dropped records.
func warnDropped(w io.Writer, set experimentSet) bool {
	for _, d := range set.dropped {
		fmt.Fprintf(w, "WARNING: %s/%s dropped %d of %d trace records (buffer full); its analyses cover only the stored prefix — rerun with -spill or a larger trace cap\n",
			d.os, d.name, d.dropped, d.total)
	}
	return len(set.dropped) > 0
}

// computeExperiments runs the ten evaluation traces on a pool of workers
// and reduces each to its artifacts inside the worker goroutine. With spill
// the traces stream to temp files instead of memory; the artifacts are
// byte-identical (TestSpillMatchesMemory).
func computeExperiments(seed int64, dur sim.Duration, workers int, spill bool, bench *benchReport) (experimentSet, error) {
	cfg := workloads.Config{Seed: seed, Duration: dur}
	specs := workloads.EvaluationSpecs(cfg)
	desktopIdx := len(specs) - 1
	relationsIdx := len(specs)
	specs = append(specs, workloads.Spec{
		OS: "linux", Name: workloads.Webserver,
		Cfg: workloads.Config{Seed: seed, Duration: relationsTraceDuration},
	})

	set := experimentSet{
		dur:   dur,
		names: workloads.LinuxWorkloads(),
		linux: make([]artifacts, len(workloads.LinuxWorkloads())),
		vista: make([]artifacts, len(workloads.VistaWorkloads())),
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timings := make([]runTiming, len(specs))
	errs := make([]error, len(specs))

	var phase0 runtime.MemStats
	if bench != nil {
		runtime.ReadMemStats(&phase0)
	}
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var m0, m1 runtime.MemStats
				if bench != nil {
					// Global counters: under a parallel pool each delta
					// includes neighbouring workers' allocations, so
					// per-run numbers are upper bounds there (workers=1
					// is exact). Totals use the phase-wide delta, which
					// is exact at any worker count.
					runtime.ReadMemStats(&m0)
				}
				t0 := time.Now()
				var t1 time.Time
				res, err := runSpec(specs[i], spill, func(res *workloads.Result, src trace.Source) error {
					t1 = time.Now()
					switch {
					case i < len(set.linux):
						a, err := analyze(res, src)
						if err != nil {
							return err
						}
						set.linux[i] = a
					case i < desktopIdx:
						a, err := analyze(res, src)
						if err != nil {
							return err
						}
						set.vista[i-len(set.linux)] = a
					case i == desktopIdx:
						set.desktopRates = analysis.SetRates(src, res.Duration, workloads.DesktopGrouper())
					case i == relationsIdx:
						set.relations = analysis.InferRelations(analysis.Lifecycles(src), analysis.InferOptions{})
					}
					return nil
				})
				if err != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", specs[i].OS, specs[i].Name, err)
					continue
				}
				if t1.IsZero() {
					t1 = time.Now()
				}
				timings[i] = runTiming{
					run:     t1.Sub(t0),
					analyze: time.Since(t1),
					records: int(res.Counters.Total - res.Counters.Dropped),
					dropped: res.Counters.Dropped,
				}
				if bench != nil {
					runtime.ReadMemStats(&m1)
					timings[i].mallocs = m1.Mallocs - m0.Mallocs
					timings[i].allocBytes = m1.TotalAlloc - m0.TotalAlloc
				}
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	var phaseMallocs, phaseBytes uint64
	if bench != nil {
		var phase1 runtime.MemStats
		runtime.ReadMemStats(&phase1)
		phaseMallocs = phase1.Mallocs - phase0.Mallocs
		phaseBytes = phase1.TotalAlloc - phase0.TotalAlloc
	}
	for i, e := range errs {
		if e != nil {
			return set, e
		}
		if timings[i].dropped > 0 {
			set.dropped = append(set.dropped, droppedRun{
				os: specs[i].OS, name: specs[i].Name,
				dropped: timings[i].dropped,
				total:   timings[i].dropped + uint64(timings[i].records),
			})
		}
	}
	bench.recordCompute(specs, timings, workers, wall, phaseMallocs, phaseBytes)
	return set, nil
}

func headerTo(w io.Writer, s string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", s)
}

func header(s string) { headerTo(os.Stdout, s) }

// writeFigures prints Tables 1-3 and Figures 1-11 from a computed set. It
// is deterministic: same set in, same bytes out, regardless of how the set
// was computed.
func writeFigures(w io.Writer, s experimentSet, bench *benchReport) {
	names := s.names

	bench.section("table-1-linux-summary", func() {
		headerTo(w, "Table 1: Linux trace summary")
		printSummaries(w, s.linux, false)
	})
	bench.section("table-2-vista-summary", func() {
		headerTo(w, "Table 2: Vista trace summary (timers clustered by call site, as Section 3.3)")
		printSummaries(w, s.vista, true)
	})

	bench.section("figure-1-desktop-rates", func() {
		headerTo(w, "Figure 1: Timer usage frequency in Vista (90 s desktop trace)")
		fmt.Fprint(w, analysis.RenderRates(s.desktopRates))
	})

	bench.section("figure-2-class-shares", func() {
		headerTo(w, "Figure 2: Common Linux timer usage patterns (% of timers)")
		shares := make([]analysis.ClassShares, len(s.linux))
		for i := range s.linux {
			shares[i] = s.linux[i].shares
		}
		fmt.Fprint(w, analysis.RenderClassShares(names, shares))
	})

	bench.section("figures-3-7-value-histograms", func() {
		headerTo(w, "Figure 3: Common Linux timer values (>=2%)")
		for _, a := range s.linux {
			fmt.Fprintf(w, "-- %s --\n%s", a.name, analysis.RenderValues(a.values))
		}
		headerTo(w, "Figure 4: X server select countdown (idle trace)")
		fmt.Fprint(w, analysis.RenderSeries(s.linux[0].series, s.dur))
		headerTo(w, "Figure 5: Common Linux values, X/icewm filtered, countdowns collapsed")
		for _, a := range s.linux {
			fmt.Fprintf(w, "-- %s --\n%s", a.name, analysis.RenderValues(a.valuesF))
		}
		headerTo(w, "Figure 6: Common Linux syscall (user-space) timer values")
		for _, a := range s.linux {
			fmt.Fprintf(w, "-- %s --\n%s", a.name, analysis.RenderValues(a.valuesU))
		}
		headerTo(w, "Figure 7: Common Vista timeout values")
		for _, a := range s.vista {
			fmt.Fprintf(w, "-- %s --\n%s", a.name, analysis.RenderValues(a.values))
		}
	})

	bench.section("figures-8-11-scatter", func() {
		figNames := []string{"Figure 8 (Idle)", "Figure 9 (Skype)", "Figure 10 (Firefox)", "Figure 11 (Webserver)"}
		for i := range names {
			headerTo(w, figNames[i]+": expiry/cancelation time vs timeout value")
			fmt.Fprintf(w, "-- Linux --\n%s", analysis.RenderScatter(s.linux[i].scatter))
			fmt.Fprintf(w, "-- Vista --\n%s", analysis.RenderScatter(s.vista[i].scatter))
		}
	})

	bench.section("table-3-origins", func() {
		headerTo(w, "Table 3: Origins and classification of frequent Linux timeout values")
		fmt.Fprint(w, analysis.RenderOrigins(mergeOrigins(s.linux)))
	})
}

func main() {
	os.Exit(run())
}

// run is main minus os.Exit: it selects the mode from the flags set on
// the command line (see modes.go) and runs it. A flag the selected mode
// does not accept exits 2 before anything starts.
func run() int {
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) {
		// A bool flag set to false (-fleet=false) is the default: it
		// selects and changes nothing.
		if g, ok := f.Value.(flag.Getter); ok && g.Get() == false {
			return
		}
		set = append(set, f.Name)
	})
	m, err := selectMode(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	return m.run()
}

// runPaper is the default mode, the paper's evaluation suite. It returns
// its exit code rather than exiting, so the pprof writers always flush.
func runPaper() int {
	dur := sim.FromStd(*durFlag)
	if *quick {
		dur = 2 * sim.Minute
	}
	cfg := workloads.Config{Seed: *seedFlag, Duration: dur}
	fmt.Printf("timerstudy experiments: %v virtual per trace, seed %d\n", dur, *seedFlag)

	if *cpuproFl != "" {
		f, err := os.Create(*cpuproFl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var bench *benchReport
	if *benchFl != "" {
		bench = &benchReport{Config: benchConfig{
			Seed:            *seedFlag,
			VirtualPerTrace: dur.String(),
			Quick:           *quick,
			Workers:         *workersFl,
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
		}}
	}

	set, err := computeExperiments(*seedFlag, dur, *workersFl, *spillFl, bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	writeFigures(os.Stdout, set, bench)
	if warnDropped(os.Stderr, set) && *strictFl {
		fmt.Fprintln(os.Stderr, "experiments: -strict: trace records were dropped")
		return 1
	}

	bench.section("section-3.2-overhead", func() {
		header("Section 3.2: instrumentation overhead")
		overheadExperiment(cfg)
	})
	bench.section("section-2.2.2-layers", func() {
		header("Section 2.2.2: layered timeouts (open a file share)")
		layersExperiment()
	})
	bench.section("section-5.1-adaptive", func() {
		header("Section 5.1: adaptive timeouts vs the fixed 30 s")
		adaptiveExperiment()
	})
	bench.section("section-5.3-coalescing", func() {
		header("Section 5.3: slack windows, round_jiffies, dynticks vs CPU wakeups")
		coalescingExperiment()
	})
	bench.section("section-5.2-relations", func() {
		header("Section 5.2: timer relations inferred from the webserver trace")
		fmt.Print(analysis.RenderRelations(set.relations))
	})
	bench.section("section-5.5-dispatcher", func() {
		header("Section 5.5: timers merged into the CPU dispatcher")
		dispatcherExperiment()
	})
	bench.section("related-work-soft-timers", func() {
		header("Related work: soft timers (Aron & Druschel) on this substrate")
		softTimerExperiment()
	})

	if bench != nil {
		bench.section("stream-codec-bench", func() {
			bench.Stream = streamBench()
		})
		if err := bench.writeFile(*benchFl); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchFl, err)
			return 1
		}
	}

	if *memproFl != "" {
		f, err := os.Create(*memproFl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // flush recent allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Bench report: machine-readable wall-clock timings (BENCH_experiments.json).

type runTiming struct {
	run        time.Duration
	analyze    time.Duration
	records    int // stored (analyzed) records
	dropped    uint64
	mallocs    uint64
	allocBytes uint64
}

type benchConfig struct {
	Seed            int64  `json:"seed"`
	VirtualPerTrace string `json:"virtual_per_trace"`
	Quick           bool   `json:"quick"`
	Workers         int    `json:"workers"` // 0 = GOMAXPROCS
	GOMAXPROCS      int    `json:"gomaxprocs"`
	// AllocNote flags when per-run alloc columns are upper bounds: the
	// runtime counters are process-global, so with workers > 1 each run's
	// delta absorbs its neighbours'. Totals are exact either way.
	AllocNote string `json:"alloc_note,omitempty"`
}

type benchRun struct {
	OS            string  `json:"os"`
	Workload      string  `json:"workload"`
	Virtual       string  `json:"virtual"`
	RunMS         float64 `json:"run_ms"`
	AnalyzeMS     float64 `json:"analyze_ms"`
	Records       int     `json:"records"`
	RecordsPerSec float64 `json:"records_per_sec"` // analysis throughput
	// Allocs/AllocMB cover run+analyze together (one ReadMemStats delta);
	// AllocsPerRecord = Allocs / Records, the figure the zero-allocation
	// engine work drives toward zero.
	Allocs          uint64  `json:"allocs"`
	AllocMB         float64 `json:"alloc_mb"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

type benchSection struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

type benchTotals struct {
	// ComputeWallMS is the observed wall-clock of the parallel run+analyze
	// phase; RunWallSumMS is what the same work costs serially (sum over
	// runs). Their ratio estimates the fan-out speedup on this host — but
	// only when workers <= GOMAXPROCS: an oversubscribed pool time-slices,
	// each run's wall then includes its neighbours' work, and the ratio
	// overstates. SpeedupVsSerial is 0 in that case.
	ComputeWallMS   float64 `json:"compute_wall_ms"`
	RunWallSumMS    float64 `json:"run_wall_sum_ms"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial_estimate,omitempty"`
	RecordsAnalyzed int     `json:"records_analyzed"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	// Whole-compute-phase allocation totals from one ReadMemStats delta
	// around the pool: exact at any worker count.
	Allocs          uint64  `json:"allocs"`
	AllocMB         float64 `json:"alloc_mb"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// benchStream reports v2 stream-codec and analysis throughput, measured
// over an in-memory synthetic trace so disk speed doesn't pollute the
// numbers.
type benchStream struct {
	Records         int     `json:"records"`
	Bytes           int     `json:"bytes"`
	EncodeMS        float64 `json:"encode_ms"`
	DecodeMS        float64 `json:"decode_ms"`
	EncodeMBPerSec  float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec  float64 `json:"decode_mb_per_sec"`
	EncodeRecPerSec float64 `json:"encode_records_per_sec"`
	DecodeRecPerSec float64 `json:"decode_records_per_sec"`
	// Analyze throughput runs the full artifact pipeline over the encoded
	// stream: serial is Pipeline.Run, parallel is Pipeline.RunParallel at
	// GOMAXPROCS, and the scaling map records MB/s per worker count
	// (keys "1", "2", ...). Parallel speedup is host-dependent: on a
	// single-CPU machine parallel equals serial.
	AnalyzeMBPerSec         float64            `json:"analyze_mb_per_sec"`
	AnalyzeRecPerSec        float64            `json:"analyze_records_per_sec"`
	AnalyzeParallelMBPerSec float64            `json:"analyze_parallel_mb_per_sec"`
	AnalyzeWorkerScaling    map[string]float64 `json:"analyze_worker_mb_per_sec"`
}

type benchReport struct {
	Config   benchConfig    `json:"config"`
	Runs     []benchRun     `json:"runs"`
	Sections []benchSection `json:"sections"`
	Stream   *benchStream   `json:"stream,omitempty"`
	Totals   benchTotals    `json:"totals"`
}

// streamBench encodes a synthetic trace through StreamWriter, replays it
// through StreamReader, and runs the artifact pipeline over it serially and
// at a worker sweep, reporting throughput for every stage. Origins are
// interned and the buffer pre-sized before the encode clock starts, so
// encode_mb_per_sec measures the codec, not fmt.Sprintf or bytes.Buffer
// regrowth.
func streamBench() *benchStream {
	const n = 1 << 21
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("bench/origin-%d", i)
	}
	var buf bytes.Buffer
	buf.Grow(n*trace.RecordSize + n/64) // records + ample frame/footer headroom
	sw := trace.NewStreamWriter(&buf)
	origins := make([]uint32, len(names))
	for i, name := range names {
		origins[i] = sw.Origin(name)
	}
	r := trace.Record{Op: trace.OpSet, Timeout: int64(10 * sim.Millisecond)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.T = sim.Time(i)
		r.TimerID = uint64(i % 1024)
		r.Origin = origins[i%len(origins)]
		sw.Log(r)
	}
	if err := sw.Close(); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	enc := time.Since(t0)

	t0 = time.Now()
	sr, err := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		panic(err)
	}
	got := 0
	if err := sr.ForEach(func(trace.Record) { got++ }); err != nil || got != n {
		panic(fmt.Sprintf("stream bench replay: %d records, %v", got, err))
	}
	dec := time.Since(t0)

	// Analysis throughput over the same encoded stream, with the full
	// artifact configuration the evaluation runs use.
	sOpts := analysis.DefaultScatterOptions()
	p := analysis.Pipeline{
		Values:        analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		Scatter:       &sOpts,
		SeriesProcess: "Xorg",
		OriginMinSets: 50,
	}
	analyzePass := func(workers int) time.Duration {
		sr, err := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		if workers == 0 {
			_, err = p.Run(sr)
		} else {
			_, err = p.RunParallel(sr, workers)
		}
		if err != nil {
			panic(err)
		}
		return time.Since(t0)
	}
	mb := float64(buf.Len()) / (1 << 20)
	serial := analyzePass(0)
	maxWorkers := runtime.GOMAXPROCS(0)
	parallel := analyzePass(maxWorkers)
	scaling := map[string]float64{}
	for _, w := range []int{1, 2, 4, maxWorkers} {
		key := fmt.Sprintf("%d", w)
		if _, done := scaling[key]; done {
			continue
		}
		scaling[key] = mb / analyzePass(w).Seconds()
	}

	return &benchStream{
		Records:                 n,
		Bytes:                   buf.Len(),
		EncodeMS:                ms(enc),
		DecodeMS:                ms(dec),
		EncodeMBPerSec:          mb / enc.Seconds(),
		DecodeMBPerSec:          mb / dec.Seconds(),
		EncodeRecPerSec:         float64(n) / enc.Seconds(),
		DecodeRecPerSec:         float64(n) / dec.Seconds(),
		AnalyzeMBPerSec:         mb / serial.Seconds(),
		AnalyzeRecPerSec:        float64(n) / serial.Seconds(),
		AnalyzeParallelMBPerSec: mb / parallel.Seconds(),
		AnalyzeWorkerScaling:    scaling,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// section times fn and records it; with a nil receiver it just runs fn.
func (b *benchReport) section(name string, fn func()) {
	if b == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	b.Sections = append(b.Sections, benchSection{Name: name, WallMS: ms(time.Since(t0))})
}

// recordCompute folds the per-spec timings of one computeExperiments call
// into the report. Nil-safe.
func (b *benchReport) recordCompute(specs []workloads.Spec, timings []runTiming, workers int, wall time.Duration, phaseMallocs, phaseBytes uint64) {
	if b == nil {
		return
	}
	b.Config.Workers = workers
	if workers != 1 {
		b.Config.AllocNote = "per-run allocs/alloc_mb are upper bounds (global counters, parallel workers); totals are exact"
	}
	var sum time.Duration
	var records int
	for i, s := range specs {
		t := timings[i]
		sum += t.run + t.analyze
		records += t.records
		perSec := 0.0
		if t.analyze > 0 {
			perSec = float64(t.records) / t.analyze.Seconds()
		}
		perRecord := 0.0
		if t.records > 0 {
			perRecord = float64(t.mallocs) / float64(t.records)
		}
		b.Runs = append(b.Runs, benchRun{
			OS:              s.OS,
			Workload:        s.Name,
			Virtual:         s.Cfg.Duration.String(),
			RunMS:           ms(t.run),
			AnalyzeMS:       ms(t.analyze),
			Records:         t.records,
			RecordsPerSec:   perSec,
			Allocs:          t.mallocs,
			AllocMB:         float64(t.allocBytes) / (1 << 20),
			AllocsPerRecord: perRecord,
		})
	}
	b.Totals.ComputeWallMS = ms(wall)
	b.Totals.RunWallSumMS = ms(sum)
	if wall > 0 && workers <= runtime.GOMAXPROCS(0) {
		b.Totals.SpeedupVsSerial = float64(sum) / float64(wall)
	}
	b.Totals.RecordsAnalyzed = records
	if wall > 0 {
		b.Totals.RecordsPerSec = float64(records) / wall.Seconds()
	}
	b.Totals.Allocs = phaseMallocs
	b.Totals.AllocMB = float64(phaseBytes) / (1 << 20)
	if records > 0 {
		b.Totals.AllocsPerRecord = float64(phaseMallocs) / float64(records)
	}
}

func (b *benchReport) writeFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ---------------------------------------------------------------------------

// dispatcherExperiment contrasts the observed poll-loop idiom with declared
// dispatch requirements (the Section 5.5 design).
func dispatcherExperiment() {
	const runFor = 30 * sim.Second
	// Poll-loop version.
	eng := sim.NewEngine(1)
	tr := trace.NewBuffer(1 << 20)
	lx := kernel.NewLinux(eng, tr)
	app := lx.NewProcess("softrt")
	for _, p := range []sim.Duration{20 * sim.Millisecond, 32 * sim.Millisecond} {
		p := p
		th := app.NewThread()
		var loop func()
		loop = func() { th.Poll(p, func(kernel.SelectResult) { loop() }) }
		loop()
	}
	eng.Run(sim.Time(runFor))
	s := analysis.Summarize(tr)
	fmt.Printf("poll loops:  %6d timer accesses, %6d CPU wakeups, deadline misses unobservable\n",
		s.Accesses, eng.Stats().Wakeups)

	// Dispatcher version.
	eng2 := sim.NewEngine(1)
	sched := dispatch.NewScheduler(eng2)
	audio := sched.NewTask("audio", 4)
	video := sched.NewTask("video", 1)
	audio.Periodic(audioFrameInterval, audioWindow, audioBudget, func(dispatch.Context) {})
	video.Periodic(videoFrameInterval, videoWindow, videoBudget, func(dispatch.Context) {})
	eng2.Run(sim.Time(runFor))
	st := sched.Stats()
	fmt.Printf("dispatcher:  %6d timer accesses, %6d scheduler activations, %d/%d dispatches missed\n",
		0, st.Wakeups, st.Misses, st.Dispatches)
}

// softTimerExperiment quantifies the related-work point solution the paper
// cites for timer overhead: trigger-state delivery vs per-timer interrupts.
func softTimerExperiment() {
	const span = 500 * sim.Millisecond
	const rate = 50 * sim.Microsecond
	// Baseline: a hardware interrupt per 20 kHz timer.
	eng := sim.NewEngine(1)
	var hard uint64
	var rearm func()
	rearm = func() {
		eng.After(rate, "hw", func() {
			hard++
			if eng.Now() < sim.Time(span-10*sim.Millisecond) {
				rearm()
			}
		})
	}
	rearm()
	eng.Run(sim.Time(span))

	// Soft timers on a busy host.
	eng2 := sim.NewEngine(1)
	f := softtimer.New(eng2, softOverflowPeriod)
	var trigger func()
	trigger = func() {
		f.TriggerState()
		d := sim.Duration(eng2.Rand().ExpFloat64() * float64(30*sim.Microsecond))
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		if eng2.Now() < sim.Time(span) {
			eng2.After(d, "trig", trigger)
		}
	}
	eng2.After(0, "trig", trigger)
	var arm func()
	arm = func() {
		f.Schedule(rate, func() {
			if eng2.Now() < sim.Time(span-10*sim.Millisecond) {
				arm()
			}
		})
	}
	arm()
	eng2.Run(sim.Time(span))
	st := f.Stats()
	fmt.Printf("20 kHz network-polling timers over %v:\n", span)
	fmt.Printf("  per-timer hardware interrupts: %d\n", hard)
	fmt.Printf("  soft timers: %d overflow interrupts, %d soft deliveries, mean lag %v, max lag %v\n",
		st.OverflowInterrupts, st.SoftFired, st.MeanLatency(), st.MaxLatency)
}

func printSummaries(w io.Writer, arts []artifacts, clustered bool) {
	names := make([]string, len(arts))
	sums := make([]analysis.Summary, len(arts))
	for i, a := range arts {
		names[i] = a.name
		sums[i] = a.summary
		if clustered {
			sums[i].Timers = a.summary.ClusteredTimers
		}
	}
	fmt.Fprint(w, analysis.RenderSummaryTable("", names, sums))
}

// mergeOrigins combines the per-workload origin tables into one Table 3.
func mergeOrigins(arts []artifacts) []analysis.OriginRow {
	merged := map[string]analysis.OriginRow{}
	for _, a := range arts {
		for _, r := range a.origins {
			m, ok := merged[r.Origin]
			if !ok || r.Sets > m.Sets {
				if ok {
					r.Sets += m.Sets
					r.Timers += m.Timers
				}
				merged[r.Origin] = r
			} else {
				m.Sets += r.Sets
				m.Timers += r.Timers
				merged[r.Origin] = m
			}
		}
	}
	rows := make([]analysis.OriginRow, 0, len(merged))
	for _, r := range merged {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value < rows[j].Value
		}
		return rows[i].Origin < rows[j].Origin
	})
	return rows
}

func overheadExperiment(cfg workloads.Config) {
	// Micro-benchmark: cost of one trace record (the paper measured 236
	// cycles via 1,000,000 consecutive runs).
	const n = 1_000_000
	buf := trace.NewBuffer(n)
	rec := trace.Record{T: 1, TimerID: 42, Timeout: 1000, Op: trace.OpSet}
	var perOp time.Duration
	// Two passes: the first faults the buffer in; the second measures the
	// steady-state logging path, as the paper's 1,000,000-run loop did.
	for pass := 0; pass < 2; pass++ {
		buf.Reset()
		start := time.Now()
		for i := 0; i < n; i++ {
			rec.T = sim.Time(i)
			buf.Log(rec)
		}
		perOp = time.Since(start) / n
	}
	fmt.Printf("logging micro-benchmark: %v per record over %d records (paper: 236 cycles ≈ 89 ns at 2.66 GHz)\n", perOp, n)

	// Perturbation: identical workload with full tracing vs counting-only.
	run := func(capRecords int) (uint64, time.Duration) {
		c := cfg
		c.TraceCap = capRecords
		c.Duration = 2 * sim.Minute
		start := time.Now()
		res := workloads.RunLinux(workloads.Firefox, c)
		return res.Counters.Total, time.Since(start)
	}
	fullOps, fullT := run(trace.DefaultCapacity)
	bareOps, bareT := run(1) // store (almost) nothing, count everything
	diff := 100 * (float64(fullOps) - float64(bareOps)) / float64(bareOps)
	fmt.Printf("call-count perturbation: %d vs %d timer-subsystem calls (%.2f%%; paper saw <3%%, the simulation is deterministic)\n",
		fullOps, bareOps, diff)
	fmt.Printf("host-time cost of storing records: %v vs %v for a 2-minute Firefox trace\n", fullT, bareT)
}

func layersExperiment() {
	type row struct {
		policy layers.Policy
		target string
		out    layers.Outcome
	}
	var rows []row
	for _, pol := range []layers.Policy{layers.Static, layers.Budgeted, layers.Adaptive} {
		for _, target := range []string{layers.FileServer, layers.DeadHost, layers.BadName} {
			w := layers.NewWorld(1)
			if pol == layers.Adaptive {
				w.Warm(10)
			}
			rows = append(rows, row{pol, target, w.OpenShare(pol, target, shareDeadline)})
		}
	}
	fmt.Printf("%-10s %-16s %-8s %-14s %s\n", "policy", "target", "result", "time-to-report", "decided by")
	for _, r := range rows {
		status := "error"
		if r.out.OK {
			status = "ok"
		}
		fmt.Printf("%-10s %-16s %-8s %-14v %s\n", r.policy, r.target, status, r.out.Elapsed, r.out.Detail)
	}
	fmt.Println("\nThe healthy server answers within ~300 ms (130 ms RTT), yet the static")
	fmt.Println("layering needs over a minute to report a dead host — the paper's point.")
}

func adaptiveExperiment() {
	// An RPC client over a 130 ms-RTT link: compare time-to-detect a
	// server death and spurious-timeout rates for fixed 30 s vs adaptive
	// 99%-confidence timeouts.
	eng := sim.NewEngine(1)
	f := core.New(core.SimBackend{Eng: eng})
	a := f.NewAdaptiveTimeout("rpc", 0.99, sim.Millisecond, 30*sim.Second)
	rng := eng.Rand()
	// 2000 successful calls with lognormal-ish latency around 130 ms.
	spurious := 0
	for i := 0; i < 2000; i++ {
		lat := 100*sim.Millisecond + sim.Duration(rng.ExpFloat64()*float64(40*sim.Millisecond))
		if lat > a.Current() {
			spurious++
		}
		a.ObserveSuccess(lat)
	}
	fixed := 30 * sim.Second
	adaptive := a.Current()
	fmt.Printf("learned 99%% timeout after 2000 calls: %v (fixed value: %v)\n", adaptive, fixed)
	fmt.Printf("spurious timeouts during learning: %d/2000 (%.2f%%)\n", spurious, float64(spurious)/20)
	fmt.Printf("failure detection speedup: %.0fx (%v -> %v)\n",
		float64(fixed)/float64(adaptive), fixed, adaptive)
	if a.Estimator().Shifts > 0 {
		fmt.Printf("level shifts detected during steady state: %d (should be 0)\n", a.Estimator().Shifts)
	}
	// Level shift: the LAN-to-WAN move of Section 5.1.
	for i := 0; i < 200; i++ {
		a.ObserveSuccess(800*sim.Millisecond + sim.Duration(rng.ExpFloat64()*float64(200*sim.Millisecond)))
	}
	fmt.Printf("after a latency regime change (x6 RTT): timeout re-learned to %v (shifts detected: %d)\n",
		a.Current(), a.Estimator().Shifts)
}

func coalescingExperiment() {
	// (a) core facility: 100 one-second housekeeping tickers at random
	// phases, precise vs 300 ms slack windows.
	run := func(slack sim.Duration) uint64 {
		eng := sim.NewEngine(1)
		f := core.New(core.SimBackend{Eng: eng})
		for i := 0; i < 100; i++ {
			phase := sim.Duration(eng.Rand().Int63n(int64(sim.Second)))
			p := phase
			eng.After(p, "start", func() {
				f.NewTicker("housekeeping", housekeepingPeriod, slack, func() {})
			})
		}
		eng.Run(sim.Time(sim.Minute))
		return f.Stats().Wakeups
	}
	precise := run(0)
	sloppy := run(coalesceSlack)
	fmt.Printf("core facility, 100 x 1 s tickers over 60 s: %d wakeups precise, %d with 300 ms slack (%.1fx fewer)\n",
		precise, sloppy, float64(precise)/float64(sloppy))
	pm := sim.LaptopPower()
	fmt.Printf("estimated package power (%s): %.2f W precise vs %.2f W with slack\n", pm,
		pm.AveragePower(sim.Stats{Wakeups: precise, Events: precise * 2}, sim.Duration(sim.Minute)),
		pm.AveragePower(sim.Stats{Wakeups: sloppy, Events: sloppy * 2}, sim.Duration(sim.Minute)))

	// (b) Linux jiffies: round_jiffies batching and dynticks idle skipping.
	jrun := func(round, nohz bool) (wakeups, ticks uint64) {
		eng := sim.NewEngine(1)
		b := jiffies.NewBase(eng, trace.NewBuffer(0), jiffies.WithNoHZ(nohz))
		for i := 0; i < 20; i++ {
			t := &jiffies.Timer{}
			var rearm func()
			rearm = func() {
				dj := jiffies.MsecsToJiffies(housekeepingPeriod)
				if round {
					dj = b.RoundJiffiesRelative(dj)
				}
				b.Mod(t, b.Jiffies()+dj)
			}
			b.Init(t, "housekeeping", 0, rearm)
			eng.At(sim.Time(eng.Rand().Int63n(int64(sim.Second))), "phase", rearm)
		}
		eng.Run(sim.Time(sim.Minute))
		return eng.Stats().Wakeups, b.TickCount
	}
	w1, t1 := jrun(false, false)
	w2, t2 := jrun(false, true)
	w3, t3 := jrun(true, true)
	fmt.Printf("jiffies, 20 x 1 s timers over 60 s:\n")
	fmt.Printf("  periodic tick:                 %5d wakeups, %5d tick interrupts\n", w1, t1)
	fmt.Printf("  dynticks (NO_HZ):              %5d wakeups, %5d tick interrupts\n", w2, t2)
	fmt.Printf("  dynticks + round_jiffies:      %5d wakeups, %5d tick interrupts\n", w3, t3)
}
