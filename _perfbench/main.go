// Command perfbench is the repository's end-to-end benchmark. It drives the
// timerstudy packages through three workloads the way users run them —
// `paper` (capture and analyse the nine evaluation traces), `fleet` (a
// steered 1024-host datacenter with checkpoint and resume) and `serve` (the
// live trace service under an open-loop ingest and query load) — checks
// every output, and prints one JSON result line last.
//
// Usage, from the repository root:
//
//	bash _perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run wraps each call into a layer in a span, runs the layer ladders of
// all three workloads, and the result carries the per-layer metrics plus the
// tracing overhead on the chosen workload. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test scale: every workload shrunk to well under a second
	spansOut string // where the traced run writes its spans ("" = do not write)
}

// report accumulates a run's outcome: operations attempted and failed, the
// machine-readable metrics, and the human-readable lines printed before the
// result.
type report struct {
	out       io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

// op counts one attempted operation; a non-nil err counts it failed and is
// printed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.out, "FAILED: %v\n", err)
	}
}

// set records a result metric.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// line prints one human-readable metric line: name, value, unit, sample
// count, and what it stands for.
func (r *report) line(name string, v float64, unit string, n int, note string) {
	fmt.Fprintf(r.out, "  %-40s %14.6g %-8s n=%-6d %s\n", name, v, unit, n, note)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs one workload and prints the result; it returns the
// process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "workload: paper, fleet or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "self-test scale")
	fs.StringVar(&o.spansOut, "spans", "", "traced run: span file (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(errOut, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceN == 1
	if o.seconds <= 0 {
		fmt.Fprintln(errOut, "perfbench: --seconds must be positive")
		return 2
	}
	if _, ok := workloadSettings[o.workload]; !ok {
		fmt.Fprintf(errOut, "perfbench: unknown workload %q (want paper, fleet or serve)\n", o.workload)
		return 2
	}
	if o.trace && o.spansOut == "" {
		o.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}

	rep := newReport(out)
	printEnv(out, o)
	var err error
	if o.trace {
		err = runTraced(o, rep)
	} else {
		var m e2e
		m, err = runWorkload(o, rep, nil)
		for i, v := range m.values() {
			rep.set(e2eMetrics[i].name, v, e2eMetrics[i].unit)
		}
	}
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	return printResult(out, rep)
}

// e2e is one workload's end-to-end measurement, by the names BENCHMARK.json
// lists. Both timings are process CPU time (user + system), which a
// co-tenant or hypervisor taking the machine's cores does not inflate; the
// wall-clock metrics are printed beside them.
type e2e struct {
	setupS   float64 // CPU seconds of one set-up (median of the repeats)
	cpuUS    float64 // CPU microseconds per record or event in the measured window
	maxRSSMB float64
}

// e2eMetrics names and units the end-to-end metrics in result order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_item", "us"},
	{"max_rss_mb", "MB"},
}

func (m e2e) values() []float64 {
	return []float64{m.setupS, m.cpuUS, m.maxRSSMB}
}

// measuredProcs is the GOMAXPROCS of every end-to-end measurement, and
// the worker count its ForEach, RunParallel and fleet session use. At more
// than one P the Go scheduler spins idle Ps whenever a goroutine parks or
// wakes, and how long it spins depends on what else the machine runs: on 2
// vCPUs, with two busy loops beside the benchmark against none, CPU time
// per item fell 19% (serve), 11% (paper) and 29% (fleet at 2 workers), as
// the busy machine left less room to spin. At one P the same comparison
// moved 4% or less.
const measuredProcs = 1

// parallelWorkers is the machine's default GOMAXPROCS, taken before any
// measurement lowers it. The traced ladders run at it and report the
// parallel speedups (analysis.parallel_speedup, fleet.parallel_speedup).
var parallelWorkers = runtime.GOMAXPROCS(0)

// runWorkload measures one workload end to end at measuredProcs, recording
// spans into tr when it is non-nil.
func runWorkload(o options, rep *report, tr *tracer) (e2e, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measuredProcs))
	var m e2e
	var err error
	switch o.workload {
	case "paper":
		m, err = runPaper(o, rep, tr)
	case "fleet":
		m, err = runFleet(o, rep, tr)
	case "serve":
		m, err = runServe(o, rep, tr)
	}
	if err != nil {
		return m, err
	}
	m.maxRSSMB = maxRSSMB()
	rep.line("max_rss_mb", m.maxRSSMB, "MB", 1, "peak resident memory of the process")
	rep.line("error_rate", errorRate(rep), "ratio", rep.attempted, "failed operations and output checks / attempted")
	return m, nil
}

func errorRate(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return float64(rep.failed) / float64(rep.attempted)
}

// printResult writes the final JSON line and returns the exit code.
func printResult(out io.Writer, rep *report) int {
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(out, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	return 0
}

// printEnv stamps the run with its hardware, toolchain, commit, seed and
// workload settings.
func printEnv(out io.Writer, o options) {
	env := map[string]any{
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"measured_gomaxprocs": measuredProcs,
		"go":                  runtime.Version(),
		"commit":              commit(),
		"seed":                o.seed,
		"seconds":             o.seconds,
		"trace":               o.trace,
		"workload":            o.workload,
		"settings":            workloadSettings[o.workload](o),
	}
	b, _ := json.Marshal(env) // plain maps of scalars always marshal
	fmt.Fprintf(out, "env %s\n", b)
}

// workloadSettings describes each workload's fixed settings for the
// environment stamp.
var workloadSettings = map[string]func(options) any{
	"paper": func(o options) any { return paperScaleFor(o) },
	"fleet": func(o options) any { return fleetScaleFor(o) },
	"serve": func(o options) any { return serveScaleFor(o) },
}

// commit returns the VCS revision embedded at build time, or "unknown" (a
// source checkout without git history carries none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// deadline is a run's measurement budget.
type deadline struct {
	start time.Time
	d     time.Duration
}

func newDeadline(seconds float64) deadline {
	return deadline{start: time.Now(), d: time.Duration(seconds * float64(time.Second))}
}

func (d deadline) passed() bool { return time.Since(d.start) >= d.d }
