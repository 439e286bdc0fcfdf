// Package timerstudy's root benchmark harness: one benchmark per table and
// figure in the paper's evaluation, plus ablations over the timer-queue
// data structures. Each benchmark regenerates its experiment end to end
// (workload simulation + analysis) on short virtual traces and reports the
// experiment's headline quantity via ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced shapes.
package timerstudy

import (
	"testing"

	"timerstudy/internal/analysis"
	"timerstudy/internal/core"
	"timerstudy/internal/dispatch"
	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/layers"
	"timerstudy/internal/netsim"
	"timerstudy/internal/sim"
	"timerstudy/internal/softtimer"
	"timerstudy/internal/timerwheel"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// benchDuration keeps per-iteration work modest; rates are duration-
// independent.
const benchDuration = 60 * sim.Second

func benchCfg() workloads.Config {
	return workloads.Config{Seed: 1, Duration: benchDuration}
}

// --- Tables 1 and 2 ---

// benchSummaries fans the table's workloads across the worker pool (the
// cmd/experiments production path) and summarizes each trace in-worker.
func benchSummaries(b *testing.B, os string, names []string) {
	specs := make([]workloads.Spec, len(names))
	for i, n := range names {
		specs[i] = workloads.Spec{OS: os, Name: n, Cfg: benchCfg()}
	}
	last := make([]analysis.Summary, len(specs))
	for i := 0; i < b.N; i++ {
		workloads.ForEach(specs, 0, func(j int, res *workloads.Result) {
			last[j] = analysis.Summarize(res.Trace)
		})
	}
	secs := benchDuration.Seconds()
	for i, n := range names {
		b.ReportMetric(float64(last[i].Accesses)/secs, n+"-acc/vs")
	}
}

func BenchmarkTable1LinuxSummary(b *testing.B) {
	benchSummaries(b, "linux", workloads.LinuxWorkloads())
}

func BenchmarkTable2VistaSummary(b *testing.B) {
	benchSummaries(b, "vista", workloads.VistaWorkloads())
}

// --- The evaluation fan-out: nine traces, serial vs worker pool ---

// benchNineWorkloads runs the full evaluation set (4 Linux + 4 Vista +
// the 90 s desktop) per iteration; the Serial/Parallel pair measures the
// fan-out speedup on this host (identical on one core, ~min(9, cores)x
// apart on a multi-core machine — the outputs are identical either way,
// see TestParallelMatchesSerial).
func benchNineWorkloads(b *testing.B, workers int) {
	specs := workloads.EvaluationSpecs(benchCfg())
	accesses := make([]uint64, len(specs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workloads.ForEach(specs, workers, func(j int, res *workloads.Result) {
			accesses[j] = analysis.Summarize(res.Trace).Accesses
		})
	}
	var total uint64
	for _, a := range accesses {
		total += a
	}
	b.ReportMetric(float64(total), "accesses")
}

func BenchmarkNineWorkloadsSerial(b *testing.B)   { benchNineWorkloads(b, 1) }
func BenchmarkNineWorkloadsParallel(b *testing.B) { benchNineWorkloads(b, 0) }

// --- Single-pass pipeline vs the six independent walks it replaced ---

func benchAnalysisOptions() (vPlain, vFilt, vUser analysis.ValueOptions, sOpts analysis.ScatterOptions) {
	vPlain = analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2}
	vFilt = analysis.ValueOptions{
		JiffyBinKernel: true, MinSharePercent: 2,
		CollapseCountdowns: true, ExcludeProcesses: []string{"Xorg", "icewm"},
	}
	vUser = analysis.ValueOptions{UserOnly: true, MinSharePercent: 2, CollapseCountdowns: true}
	sOpts = analysis.DefaultScatterOptions()
	sOpts.ExcludeProcesses = []string{"Xorg", "icewm"}
	return
}

func BenchmarkAnalysisSinglePassPipeline(b *testing.B) {
	res := workloads.RunLinux(workloads.Webserver, benchCfg())
	vPlain, vFilt, vUser, sOpts := benchAnalysisOptions()
	b.ReportAllocs()
	b.ResetTimer()
	var rep *analysis.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = analysis.Pipeline{
			Values: vPlain, ValuesFiltered: &vFilt, ValuesUser: &vUser,
			Scatter: &sOpts, SeriesProcess: "Xorg", OriginMinSets: 50,
		}.Run(res.Trace)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
	b.ReportMetric(float64(res.Trace.Len()), "records")
	b.ReportMetric(float64(len(rep.Origins)), "origin-rows")
}

func BenchmarkAnalysisLegacySixPass(b *testing.B) {
	res := workloads.RunLinux(workloads.Webserver, benchCfg())
	vPlain, vFilt, vUser, sOpts := benchAnalysisOptions()
	b.ReportAllocs()
	b.ResetTimer()
	var rows []analysis.OriginRow
	for i := 0; i < b.N; i++ {
		ls := analysis.Lifecycles(res.Trace)
		_ = analysis.Summarize(res.Trace)
		_ = analysis.ComputeClassShares(ls)
		_, _ = analysis.CommonValues(ls, vPlain)
		_, _ = analysis.CommonValues(ls, vFilt)
		_, _ = analysis.CommonValues(ls, vUser)
		_ = analysis.Scatter(ls, sOpts)
		_ = analysis.SetSeries(ls, "Xorg")
		rows = analysis.OriginTable(ls, 50)
	}
	b.ReportMetric(float64(res.Trace.Len()), "records")
	b.ReportMetric(float64(len(rows)), "origin-rows")
}

// --- Table 3 ---

func BenchmarkTable3Origins(b *testing.B) {
	var rows []analysis.OriginRow
	for i := 0; i < b.N; i++ {
		res := workloads.RunLinux(workloads.Webserver, benchCfg())
		rows = analysis.OriginTable(analysis.Lifecycles(res.Trace), 20)
	}
	b.ReportMetric(float64(len(rows)), "origin-rows")
}

// --- Figure 1 ---

func BenchmarkFigure1VistaDesktopRate(b *testing.B) {
	var outlookPeak, kernelMean float64
	for i := 0; i < b.N; i++ {
		res := workloads.RunVista(workloads.Desktop, workloads.Config{Seed: 1, Duration: 90 * sim.Second})
		for _, s := range analysis.SetRates(res.Trace, res.Duration, workloads.DesktopGrouper()) {
			switch s.Group {
			case "Outlook":
				outlookPeak = float64(s.Peak())
			case "Kernel":
				kernelMean = s.Mean()
			}
		}
	}
	b.ReportMetric(outlookPeak, "outlook-peak/s")
	b.ReportMetric(kernelMean, "kernel-mean/s")
}

// --- Figure 2 ---

func BenchmarkFigure2UsagePatterns(b *testing.B) {
	var shares analysis.ClassShares
	for i := 0; i < b.N; i++ {
		res := workloads.RunLinux(workloads.Idle, benchCfg())
		shares = analysis.ComputeClassShares(analysis.Lifecycles(res.Trace))
	}
	b.ReportMetric(shares.Share(analysis.ClassPeriodic), "idle-periodic-%")
	b.ReportMetric(shares.Share(analysis.ClassOther), "idle-other-%")
}

// --- Figures 3, 5, 6, 7 ---

func benchValues(b *testing.B, os, workload string, opts analysis.ValueOptions) {
	var entries []analysis.ValueEntry
	for i := 0; i < b.N; i++ {
		var res *workloads.Result
		if os == "linux" {
			res = workloads.RunLinux(workload, benchCfg())
		} else {
			res = workloads.RunVista(workload, benchCfg())
		}
		entries, _ = analysis.CommonValues(analysis.Lifecycles(res.Trace), opts)
	}
	b.ReportMetric(float64(len(entries)), "common-values")
}

func BenchmarkFigure3CommonValues(b *testing.B) {
	benchValues(b, "linux", workloads.Webserver,
		analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2})
}

func BenchmarkFigure4SelectCountdown(b *testing.B) {
	var chainLen int
	for i := 0; i < b.N; i++ {
		res := workloads.RunLinux(workloads.Idle, benchCfg())
		chainLen = 0
		for _, tl := range analysis.Lifecycles(res.Trace) {
			if tl.Origin != "Xorg/select" {
				continue
			}
			for _, c := range analysis.CountdownChains(tl) {
				if c.Len() > chainLen {
					chainLen = c.Len()
				}
			}
		}
	}
	b.ReportMetric(float64(chainLen), "longest-countdown")
}

func BenchmarkFigure5FilteredValues(b *testing.B) {
	benchValues(b, "linux", workloads.Idle, analysis.ValueOptions{
		JiffyBinKernel: true, MinSharePercent: 2,
		CollapseCountdowns: true, ExcludeProcesses: []string{"Xorg", "icewm"},
	})
}

func BenchmarkFigure6SyscallValues(b *testing.B) {
	benchValues(b, "linux", workloads.Skype,
		analysis.ValueOptions{UserOnly: true, MinSharePercent: 2, CollapseCountdowns: true})
}

func BenchmarkFigure7VistaValues(b *testing.B) {
	benchValues(b, "vista", workloads.Idle, analysis.ValueOptions{MinSharePercent: 2})
}

// --- Figures 8-11 ---

func benchScatter(b *testing.B, os, workload string) {
	var pts []analysis.ScatterPoint
	for i := 0; i < b.N; i++ {
		var res *workloads.Result
		if os == "linux" {
			res = workloads.RunLinux(workload, benchCfg())
		} else {
			res = workloads.RunVista(workload, benchCfg())
		}
		opts := analysis.DefaultScatterOptions()
		opts.ExcludeProcesses = []string{"Xorg", "icewm"}
		pts = analysis.Scatter(analysis.Lifecycles(res.Trace), opts)
	}
	over := 0
	for _, p := range pts {
		if p.RatioPct >= 100 {
			over += p.Count
		}
	}
	b.ReportMetric(float64(len(pts)), "scatter-bins")
	b.ReportMetric(float64(over), "uses-at-or-over-100%")
}

func BenchmarkFigure8ScatterIdle(b *testing.B)       { benchScatter(b, "linux", workloads.Idle) }
func BenchmarkFigure9ScatterSkype(b *testing.B)      { benchScatter(b, "linux", workloads.Skype) }
func BenchmarkFigure10ScatterFirefox(b *testing.B)   { benchScatter(b, "vista", workloads.Firefox) }
func BenchmarkFigure11ScatterWebserver(b *testing.B) { benchScatter(b, "linux", workloads.Webserver) }

// --- Section 3.2: instrumentation overhead ---

func BenchmarkSec32TraceOverhead(b *testing.B) {
	buf := trace.NewBuffer(1 << 20)
	rec := trace.Record{T: 1, TimerID: 42, Timeout: 1000, Op: trace.OpSet}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			buf.Reset()
		}
		rec.T = sim.Time(i)
		buf.Log(rec)
	}
}

// --- Section 2.2.2: layered timeouts ---

func BenchmarkSec222LayeredTimeouts(b *testing.B) {
	var static, budgeted layers.Outcome
	for i := 0; i < b.N; i++ {
		ws := layers.NewWorld(1)
		static = ws.OpenShare(layers.Static, layers.DeadHost, 0)
		wb := layers.NewWorld(1)
		budgeted = wb.OpenShare(layers.Budgeted, layers.DeadHost, 5*sim.Second)
	}
	b.ReportMetric(static.Elapsed.Seconds(), "static-error-s")
	b.ReportMetric(budgeted.Elapsed.Seconds(), "budgeted-error-s")
}

// --- Section 5.1: adaptive timeouts ---

func BenchmarkSec51AdaptiveTimeouts(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		w := layers.NewWorld(1)
		w.Warm(10)
		adaptive := w.OpenShare(layers.Adaptive, layers.DeadHost, 0)
		ws := layers.NewWorld(1)
		static := ws.OpenShare(layers.Static, layers.DeadHost, 0)
		speedup = float64(static.Elapsed) / float64(adaptive.Elapsed)
	}
	b.ReportMetric(speedup, "detection-speedup-x")
}

// --- Section 5.3: coalescing ---

func BenchmarkSec53Coalescing(b *testing.B) {
	var precise, sloppy uint64
	run := func(slack sim.Duration) uint64 {
		eng := sim.NewEngine(1)
		f := core.New(core.SimBackend{Eng: eng})
		for i := 0; i < 50; i++ {
			phase := sim.Duration(eng.Rand().Int63n(int64(sim.Second)))
			eng.After(phase, "start", func() {
				f.NewTicker("task", sim.Second, slack, func() {})
			})
		}
		eng.Run(sim.Time(benchDuration))
		return f.Stats().Wakeups
	}
	for i := 0; i < b.N; i++ {
		precise = run(0)
		sloppy = run(300 * sim.Millisecond)
	}
	b.ReportMetric(float64(precise)/float64(sloppy), "wakeup-reduction-x")
}

// BenchmarkSec53Dynticks measures the jiffies-level equivalents.
func BenchmarkSec53Dynticks(b *testing.B) {
	run := func(round, nohz bool) uint64 {
		eng := sim.NewEngine(1)
		base := jiffies.NewBase(eng, trace.NewBuffer(0), jiffies.WithNoHZ(nohz))
		for i := 0; i < 20; i++ {
			t := &jiffies.Timer{}
			var rearm func()
			rearm = func() {
				dj := jiffies.MsecsToJiffies(sim.Second)
				if round {
					dj = base.RoundJiffiesRelative(dj)
				}
				base.Mod(t, base.Jiffies()+dj)
			}
			base.Init(t, "task", 0, rearm)
			eng.At(sim.Time(eng.Rand().Int63n(int64(sim.Second))), "start", rearm)
		}
		eng.Run(sim.Time(benchDuration))
		return eng.Stats().Wakeups
	}
	var periodic, tickless uint64
	for i := 0; i < b.N; i++ {
		periodic = run(false, false)
		tickless = run(true, true)
	}
	b.ReportMetric(float64(periodic)/float64(tickless), "wakeup-reduction-x")
}

// --- Ablations: timer-queue data structures ---

// benchWheel drives one queue implementation with the webserver-like op mix
// (sets mostly canceled, short and long horizons mixed).
func benchWheel(b *testing.B, mk func() timerwheel.Queue) {
	q := mk()
	timers := make([]*timerwheel.Timer, 8192)
	for i := range timers {
		timers[i] = &timerwheel.Timer{Payload: i}
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := timers[i%len(timers)]
		var horizon int
		if i%10 == 0 {
			horizon = 1_800_000 // the 7200 s keepalive
		} else {
			horizon = 64 // short protocol timers
		}
		q.Schedule(tm, now+uint64(1+i%horizon))
		if i%3 == 0 {
			q.Cancel(timers[(i*7)%len(timers)])
		}
		if i%8 == 7 {
			now++
			q.Advance(now, func(*timerwheel.Timer) {})
		}
	}
}

func BenchmarkAblationWheelSortedList(b *testing.B) {
	benchWheel(b, func() timerwheel.Queue { return timerwheel.NewSortedList() })
}

func BenchmarkAblationWheelHeap(b *testing.B) {
	benchWheel(b, func() timerwheel.Queue { return timerwheel.NewHeap() })
}

func BenchmarkAblationWheelSimple(b *testing.B) {
	benchWheel(b, func() timerwheel.Queue { return timerwheel.NewSimpleWheel(4096) })
}

func BenchmarkAblationWheelHashed(b *testing.B) {
	benchWheel(b, func() timerwheel.Queue { return timerwheel.NewHashedWheel(512) })
}

func BenchmarkAblationWheelHierarchical(b *testing.B) {
	benchWheel(b, func() timerwheel.Queue { return timerwheel.NewHierarchicalWheel() })
}

// BenchmarkAblationJiffiesBackend swaps the timer-queue structure under a
// full TCP request/response load on the jiffies subsystem: the end-to-end
// cost of the queue choice, as opposed to the micro-op costs above.
func BenchmarkAblationJiffiesBackend(b *testing.B) {
	queues := []struct {
		name string
		mk   func() timerwheel.Queue
	}{
		{"hierarchical", func() timerwheel.Queue { return timerwheel.NewHierarchicalWheel() }},
		{"hashed", func() timerwheel.Queue { return timerwheel.NewHashedWheel(256) }},
		{"heap", func() timerwheel.Queue { return timerwheel.NewHeap() }},
		{"sorted-list", func() timerwheel.Queue { return timerwheel.NewSortedList() }},
	}
	for _, q := range queues {
		q := q
		b.Run(q.name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			tr := trace.NewBuffer(0)
			srvBase := jiffies.NewBase(eng, tr, jiffies.WithQueue(q.mk()))
			cliBase := jiffies.NewBase(eng, tr, jiffies.WithQueue(q.mk()))
			net := netsim.NewNetwork(eng)
			srv := netsim.NewStack(net, "server", &netsim.LinuxFacility{Base: srvBase})
			srv.KeepaliveEnabled = true
			cli := netsim.NewStack(net, "client", &netsim.LinuxFacility{Base: cliBase})
			srv.Listen(80, func(c *netsim.Conn) {
				c.OnMessage = func(c *netsim.Conn, size int, _ any) { c.Send(1000, "resp", nil) }
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := false
				cli.Connect("server", 80, func(c *netsim.Conn, err error) {
					if err != nil {
						b.Fatal(err)
					}
					c.OnMessage = func(c *netsim.Conn, size int, _ any) {
						c.Close()
						done = true
					}
					c.Send(200, "req", nil)
				})
				for !done {
					if !eng.Step() {
						b.Fatal("engine drained")
					}
				}
			}
		})
	}
}

// BenchmarkEndToEndTCPExchange measures the transport substrate alone.
func BenchmarkEndToEndTCPExchange(b *testing.B) {
	eng := sim.NewEngine(1)
	tr := trace.NewBuffer(0)
	net := netsim.NewNetwork(eng)
	srv := netsim.NewStack(net, "server", &netsim.LinuxFacility{Base: jiffies.NewBase(eng, tr)})
	cli := netsim.NewStack(net, "client", &netsim.LinuxFacility{Base: jiffies.NewBase(eng, tr)})
	srv.Listen(80, func(c *netsim.Conn) {
		c.OnMessage = func(c *netsim.Conn, size int, _ any) { c.Send(1000, "resp", nil) }
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		cli.Connect("server", 80, func(c *netsim.Conn, err error) {
			if err != nil {
				b.Fatal(err)
			}
			c.OnMessage = func(c *netsim.Conn, size int, _ any) {
				c.Close()
				done = true
			}
			c.Send(200, "req", nil)
		})
		for !done {
			if !eng.Step() {
				b.Fatal("engine drained mid-exchange")
			}
		}
	}
}

// --- Section 5.5: dispatcher replaces the timer interface ---

func BenchmarkSec55DispatcherVsPolling(b *testing.B) {
	var pollAccesses, dispatcherMisses, dispatcherWakeups uint64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		tr := trace.NewBuffer(1 << 20)
		lx := kernel.NewLinux(eng, tr)
		app := lx.NewProcess("softrt")
		th := app.NewThread()
		var loop func()
		loop = func() { th.Poll(20*sim.Millisecond, func(kernel.SelectResult) { loop() }) }
		loop()
		eng.Run(sim.Time(10 * sim.Second))
		pollAccesses = analysis.Summarize(tr).Accesses

		eng2 := sim.NewEngine(1)
		sched := dispatch.NewScheduler(eng2)
		task := sched.NewTask("audio", 1)
		task.Periodic(20*sim.Millisecond, 5*sim.Millisecond, 2*sim.Millisecond, func(dispatch.Context) {})
		eng2.Run(sim.Time(10 * sim.Second))
		dispatcherMisses = sched.Stats().Misses
		dispatcherWakeups = sched.Stats().Wakeups
	}
	b.ReportMetric(float64(pollAccesses), "poll-timer-accesses")
	b.ReportMetric(float64(dispatcherMisses), "dispatcher-misses")
	b.ReportMetric(float64(dispatcherWakeups), "dispatcher-wakeups")
}

// --- Related work: soft timers ---

func BenchmarkSoftTimersVsPerTimerInterrupts(b *testing.B) {
	var hard, overflow uint64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		var rearm func()
		n := uint64(0)
		rearm = func() {
			eng.After(50*sim.Microsecond, "hw", func() {
				n++
				if eng.Now() < sim.Time(90*sim.Millisecond) {
					rearm()
				}
			})
		}
		rearm()
		eng.Run(sim.Time(100 * sim.Millisecond))
		hard = n

		eng2 := sim.NewEngine(1)
		f := softtimer.New(eng2, 10*sim.Millisecond)
		var trig func()
		trig = func() {
			f.TriggerState()
			if eng2.Now() < sim.Time(100*sim.Millisecond) {
				eng2.After(30*sim.Microsecond, "t", trig)
			}
		}
		eng2.After(0, "t", trig)
		var arm func()
		arm = func() {
			f.Schedule(50*sim.Microsecond, func() {
				if eng2.Now() < sim.Time(90*sim.Millisecond) {
					arm()
				}
			})
		}
		arm()
		eng2.Run(sim.Time(100 * sim.Millisecond))
		overflow = f.Stats().OverflowInterrupts
	}
	b.ReportMetric(float64(hard), "per-timer-interrupts")
	b.ReportMetric(float64(overflow), "soft-overflow-interrupts")
}
