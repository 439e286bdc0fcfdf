package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// The paper workload is the study itself: simulate the nine evaluation
// traces into v2 streams (the `timertrace -stream` path), then analyse each
// stream with StreamReader + Pipeline.RunParallel and render its JSON
// sections (the `timerstat -json` path). A pass does both phases; the run
// repeats passes on the same seed until its time is up.

// paperGoldenSeed is the seed whose rendered reports are pinned, and
// paperGolden the SHA-256 of the nine reports at the standard scale.
const (
	paperGoldenSeed = 1
	paperGolden     = "834e68d9f4c32bb6c7e194f453e4aad444cee77a14961479f9afd62f108fdb50"
)

// paperScale is the paper workload's fixed configuration.
type paperScale struct {
	Traces         int     `json:"traces"`
	VirtualS       float64 `json:"virtual_s"`        // traced virtual time per trace (the desktop trace is 90 s)
	WarmupVirtualS float64 `json:"warmup_virtual_s"` // virtual time per trace of each set-up pass
	SetupReps      int     `json:"setup_reps"`       // set-up repetitions; setup_s is their median
	Workers        int     `json:"workers"`          // ForEach and RunParallel workers of the measured passes (measuredProcs)
	Parallel       int     `json:"parallel"`         // decode and RunParallel workers of the traced ladder (parallelWorkers)
	MinPasses      int     `json:"min_passes"`       // passes run even when the time is up
}

func paperScaleFor(o options) paperScale {
	s := paperScale{Traces: 9, VirtualS: 300, WarmupVirtualS: 60, SetupReps: 5,
		Workers: measuredProcs, Parallel: parallelWorkers, MinPasses: 3}
	if o.tiny {
		s.VirtualS, s.WarmupVirtualS, s.SetupReps, s.MinPasses = 2, 1, 1, 1
	}
	return s
}

// paperPipeline is the analysis the workload renders: the summary, the
// headline value histogram and the origins table — the sections the live
// service serves.
func paperPipeline() analysis.Pipeline {
	return analysis.Pipeline{
		Values:        analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		OriginMinSets: 10,
	}
}

// traceName labels an evaluation spec ("linux_idle").
func traceName(s workloads.Spec) string { return s.OS + "_" + s.Name }

// paperPass is one capture + analysis pass.
type paperPass struct {
	records uint64
	capture time.Duration
	analyze time.Duration
	digest  string
}

// paperRunner holds the per-trace stream buffers, reused across passes.
type paperRunner struct {
	sc    paperScale
	pipe  analysis.Pipeline
	bufs  []*bytes.Buffer
	specs []workloads.Spec
}

func newPaperRunner(sc paperScale, seed int64, virtualS float64) *paperRunner {
	cfg := workloads.Config{Seed: seed, Duration: sim.Duration(virtualS * float64(sim.Second))}
	specs := workloads.EvaluationSpecs(cfg)
	if sc.VirtualS < 90 {
		// Scaled-down runs shorten the 90 s desktop trace too.
		specs[len(specs)-1].Cfg.Duration = cfg.Duration
	}
	r := &paperRunner{sc: sc, pipe: paperPipeline(), specs: specs}
	r.bufs = make([]*bytes.Buffer, len(specs))
	for i := range r.bufs {
		r.bufs[i] = &bytes.Buffer{}
	}
	return r
}

// pass captures then analyses every trace, checking each report against
// its writer's counters. It returns one entry per operation — a capture, an
// analysis and a totals check per trace — nil where the operation passed.
func (r *paperRunner) pass(tr *tracer, parent uint64) (paperPass, []error) {
	n := len(r.specs)
	sws := make([]*trace.StreamWriter, n)
	specs := append([]workloads.Spec(nil), r.specs...)
	for i := range specs {
		r.bufs[i].Reset()
		sws[i] = trace.NewStreamWriter(r.bufs[i])
		specs[i].Cfg.Sink = sws[i]
	}
	counters := make([]trace.Counters, n)
	ops := make([]error, 0, 3*n)

	root := tr.begin("paper.pass", parent, false)
	capture := tr.begin("workloads.capture", root.spanID(), false)
	t0 := time.Now()
	workloads.ForEach(specs, r.sc.Workers, func(i int, res *workloads.Result) {
		sws[i].Close() // the error is sticky; Err reports it below
		counters[i] = sws[i].Counters()
	})
	p := paperPass{capture: time.Since(t0)}
	capture.end()
	for i := range specs {
		var err error
		if err = sws[i].Err(); err != nil {
			err = fmt.Errorf("paper: capture %s: %w", traceName(r.specs[i]), err)
		}
		ops = append(ops, err)
		p.records += counters[i].Total
	}

	h := sha256.New()
	an := tr.begin("analysis.phase", root.spanID(), false)
	t1 := time.Now()
	for i := range specs {
		one := tr.begin("analysis.trace", an.spanID(), false)
		rep, err := r.analyze(r.bufs[i].Bytes())
		one.end()
		if err != nil {
			ops = append(ops, fmt.Errorf("paper: analyse %s: %w", traceName(r.specs[i]), err))
			ops = append(ops, fmt.Errorf("paper: %s: no report to check", traceName(r.specs[i])))
			continue
		}
		ops = append(ops, nil)
		if err := checkTotals(rep.Summary, counters[i]); err != nil {
			err = fmt.Errorf("paper: %s: %w", traceName(r.specs[i]), err)
			ops = append(ops, err)
		} else {
			ops = append(ops, nil)
		}
		fmt.Fprintf(h, "%s\n", traceName(r.specs[i]))
		h.Write(rep.SummaryJSON())
		h.Write(rep.HistogramsJSON())
		h.Write(rep.OriginsJSON())
	}
	p.analyze = time.Since(t1)
	an.end()
	root.end()
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, ops
}

// analyze is one `timerstat -json` run over an in-memory v2 stream.
func (r *paperRunner) analyze(stream []byte) (*analysis.Report, error) {
	sr, err := trace.NewStreamReader(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	rep, err := r.pipe.RunParallel(sr, r.sc.Workers)
	if err != nil {
		return nil, err
	}
	// Render every section, as the CLI and the service do.
	rep.SummaryJSON()
	rep.HistogramsJSON()
	rep.OriginsJSON()
	return rep, nil
}

// checkTotals compares a report's operation totals with the writer's
// counters: every record the simulation logged must be accounted for.
func checkTotals(s analysis.Summary, c trace.Counters) error {
	switch {
	case c.Dropped != 0:
		return fmt.Errorf("writer dropped %d records", c.Dropped)
	case s.Accesses != c.Total:
		return fmt.Errorf("report counts %d accesses, writer logged %d", s.Accesses, c.Total)
	case s.Set != c.ByOp[trace.OpSet]+c.ByOp[trace.OpWait]:
		return fmt.Errorf("report counts %d sets, writer logged %d sets + %d waits",
			s.Set, c.ByOp[trace.OpSet], c.ByOp[trace.OpWait])
	case s.Expired != c.ByOp[trace.OpExpire]:
		return fmt.Errorf("report counts %d expiries, writer logged %d", s.Expired, c.ByOp[trace.OpExpire])
	case s.Canceled != c.ByOp[trace.OpCancel]:
		return fmt.Errorf("report counts %d cancels, writer logged %d", s.Canceled, c.ByOp[trace.OpCancel])
	}
	return nil
}

// runPaper measures the paper workload.
func runPaper(o options, rep *report, tr *tracer) (e2e, error) {
	sc := paperScaleFor(o)

	// Set-up: a short warm-up pass, so code paths, the heap and the stream
	// buffers reach steady state before timing. Repeated; setup_s is the
	// median.
	var setups, setupWall []float64
	var r *paperRunner
	for i := 0; i < sc.SetupReps; i++ {
		c0, t0 := cpuTime(), time.Now()
		sp := tr.begin("paper.setup", 0, false)
		w := newPaperRunner(sc, o.seed, sc.WarmupVirtualS)
		_, ops := w.pass(nil, 0)
		r = newPaperRunner(sc, o.seed, sc.VirtualS)
		sp.end()
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		for _, err := range ops {
			rep.op(err)
		}
	}

	dl := newDeadline(o.seconds)
	var captureRate, analyzeRate, analyzeMS, cpuPerRecord []float64
	var first paperPass
	for pass := 0; pass < sc.MinPasses || !dl.passed(); pass++ {
		runtime.GC() // each pass starts from a collected heap
		c0 := cpuTime()
		p, ops := r.pass(tr, 0)
		cpuPerRecord = append(cpuPerRecord, us(cpuTime()-c0)/float64(p.records))
		for _, err := range ops {
			rep.op(err)
		}
		switch {
		case pass == 0:
			first = p
			rep.op(checkPaperGolden(o, sc, p.digest))
		default:
			var err error
			if p.digest != first.digest {
				err = fmt.Errorf("paper: pass %d rendered reports %s, pass 0 rendered %s", pass, p.digest, first.digest)
			}
			rep.op(err)
		}
		captureRate = append(captureRate, float64(p.records)/p.capture.Seconds())
		analyzeRate = append(analyzeRate, float64(p.records)/p.analyze.Seconds())
		analyzeMS = append(analyzeMS, ms(p.analyze))
	}

	m := e2e{setupS: median(setups), cpuUS: median(cpuPerRecord)}
	fmt.Fprintf(rep.out, "paper: %d traces, %d records per pass, report digest %s\n",
		len(r.specs), first.records, first.digest)
	rep.line("setup_s", m.setupS, "s", len(setups), "CPU time of a 60 s warm-up capture+analysis pass (median)")
	rep.line("setup_wall_s", median(setupWall), "s", len(setupWall), "wall time of the same (median)")
	rep.line("capture_records_per_s", median(captureRate), "1/s", len(captureRate), "records simulated and encoded per second, phase 1 (median)")
	rep.line("analyze_records_per_s", median(analyzeRate), "1/s", len(analyzeRate), "records decoded, analysed and rendered per second, phase 2 (median)")
	rep.line("analyze_ms", median(analyzeMS), "ms", len(analyzeMS), "phase 2 wall time for the nine traces (median)")
	rep.line("cpu_us_per_item", m.cpuUS, "us", len(cpuPerRecord), "CPU time per record of a whole pass, capture and analysis (median)")
	return m, nil
}

// checkPaperGolden compares the rendered reports with the pinned digest on
// the pinned seed at the standard scale; other seeds and scales have no
// recorded digest (every pass is still checked against the first).
func checkPaperGolden(o options, sc paperScale, digest string) error {
	if o.seed != paperGoldenSeed || o.tiny {
		return nil
	}
	if digest != paperGolden {
		return fmt.Errorf("paper: rendered reports digest %s, want %s (seed %d, %g s traces)",
			digest, paperGolden, o.seed, sc.VirtualS)
	}
	return nil
}
