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
//	experiments -bench f.json # also write the deterministic counts report
//	experiments -fleet       # the datacenter fleet under the control plane
//	experiments -list        # every mode, its flags, workloads and commands
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
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
	benchFl   = flag.String("bench", "", "write the deterministic counts report (JSON) to this file")
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
	runs         []benchRun // one per trace, in spec order
}

// warnDropped prints a warning per run whose trace buffer overflowed (its
// analyses silently cover only the stored prefix) and reports whether any
// run dropped records.
func warnDropped(w io.Writer, set experimentSet) bool {
	dropped := false
	for _, r := range set.runs {
		if r.Dropped == 0 {
			continue
		}
		fmt.Fprintf(w, "WARNING: %s/%s dropped %d of %d trace records (buffer full); its analyses cover only the stored prefix — rerun with -spill or a larger trace cap\n",
			r.OS, r.Workload, r.Dropped, r.Dropped+r.Records)
		dropped = true
	}
	return dropped
}

// computeExperiments runs the ten evaluation traces on a pool of workers
// and reduces each to its artifacts inside the worker goroutine. With spill
// the traces stream to temp files instead of memory; the artifacts are
// byte-identical (TestSpillMatchesMemory).
func computeExperiments(seed int64, dur sim.Duration, workers int, spill bool) (experimentSet, error) {
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
		runs:  make([]benchRun, len(specs)),
	}
	errs := make([]error, len(specs))
	workloads.ForEachIndex(len(specs), workers, func(i int) {
		res, err := runSpec(specs[i], spill, func(res *workloads.Result, src trace.Source) error {
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
			return
		}
		set.runs[i] = benchRun{
			OS:       specs[i].OS,
			Workload: specs[i].Name,
			Virtual:  specs[i].Cfg.Duration.String(),
			Records:  res.Counters.Total - res.Counters.Dropped,
			Dropped:  res.Counters.Dropped,
		}
	})
	for _, e := range errs {
		if e != nil {
			return set, e
		}
	}
	return set, nil
}

func headerTo(w io.Writer, s string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", s)
}

func header(s string) { headerTo(os.Stdout, s) }

// writeFigures prints Tables 1-3 and Figures 1-11 from a computed set. It
// is deterministic: same set in, same bytes out, regardless of how the set
// was computed.
func writeFigures(w io.Writer, s experimentSet) {
	names := s.names

	headerTo(w, "Table 1: Linux trace summary")
	printSummaries(w, s.linux, false)
	headerTo(w, "Table 2: Vista trace summary (timers clustered by call site, as Section 3.3)")
	printSummaries(w, s.vista, true)

	headerTo(w, "Figure 1: Timer usage frequency in Vista (90 s desktop trace)")
	fmt.Fprint(w, analysis.RenderRates(s.desktopRates))

	headerTo(w, "Figure 2: Common Linux timer usage patterns (% of timers)")
	shares := make([]analysis.ClassShares, len(s.linux))
	for i := range s.linux {
		shares[i] = s.linux[i].shares
	}
	fmt.Fprint(w, analysis.RenderClassShares(names, shares))

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

	figNames := []string{"Figure 8 (Idle)", "Figure 9 (Skype)", "Figure 10 (Firefox)", "Figure 11 (Webserver)"}
	for i := range names {
		headerTo(w, figNames[i]+": expiry/cancelation time vs timeout value")
		fmt.Fprintf(w, "-- Linux --\n%s", analysis.RenderScatter(s.linux[i].scatter))
		fmt.Fprintf(w, "-- Vista --\n%s", analysis.RenderScatter(s.vista[i].scatter))
	}

	headerTo(w, "Table 3: Origins and classification of frequent Linux timeout values")
	fmt.Fprint(w, analysis.RenderOrigins(mergeOrigins(s.linux)))
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

	set, err := computeExperiments(*seedFlag, dur, *workersFl, *spillFl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	writeFigures(os.Stdout, set)
	if warnDropped(os.Stderr, set) && *strictFl {
		fmt.Fprintln(os.Stderr, "experiments: -strict: trace records were dropped")
		return 1
	}

	header("Section 3.2: instrumentation overhead")
	overheadExperiment(cfg)
	header("Section 2.2.2: layered timeouts (open a file share)")
	layersExperiment()
	header("Section 5.1: adaptive timeouts vs the fixed 30 s")
	adaptiveExperiment()
	header("Section 5.3: slack windows, round_jiffies, dynticks vs CPU wakeups")
	coalescingExperiment()
	header("Section 5.2: timer relations inferred from the webserver trace")
	fmt.Print(analysis.RenderRelations(set.relations))
	header("Section 5.5: timers merged into the CPU dispatcher")
	dispatcherExperiment()
	header("Related work: soft timers (Aron & Druschel) on this substrate")
	softTimerExperiment()

	if *benchFl != "" {
		if err := writeJSON(*benchFl, newBenchReport(*seedFlag, set)); err != nil {
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
// Bench report: the deterministic counts report (BENCH_experiments.json).
// Every field is a pure function of the seed and the trace sizes, so a
// regeneration matches the committed file byte for byte at any worker
// count or GOMAXPROCS; host timings belong to the _perfbench harness.

// benchRun is one evaluation trace's record counts.
type benchRun struct {
	OS       string `json:"os"`
	Workload string `json:"workload"`
	Virtual  string `json:"virtual"`
	Records  uint64 `json:"records"` // stored (analyzed) records
	Dropped  uint64 `json:"dropped"`
}

type benchReport struct {
	Seed            int64      `json:"seed"`
	VirtualPerTrace string     `json:"virtual_per_trace"`
	Runs            []benchRun `json:"runs"`
	// FiguresSHA256 pins the rendered Tables 1-3 and Figures 1-11.
	FiguresSHA256 string `json:"figures_sha256"`
}

func newBenchReport(seed int64, set experimentSet) benchReport {
	h := sha256.New()
	writeFigures(h, set)
	return benchReport{
		Seed:            seed,
		VirtualPerTrace: set.dur.String(),
		Runs:            set.runs,
		FiguresSHA256:   hex.EncodeToString(h.Sum(nil)),
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
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
