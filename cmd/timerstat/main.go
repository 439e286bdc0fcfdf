// Command timerstat analyses a binary timer trace written by timertrace,
// reproducing the paper's per-trace analyses: summary counts (Tables 1-2),
// usage-pattern classification (Figure 2), common-value histograms
// (Figures 3 and 5-7), the select-countdown dot plot (Figure 4), the
// expiry/cancelation scatter (Figures 8-11), and the origins table
// (Table 3).
//
// Traces are in the chunked v2 stream format that timertrace writes.
// Everything except -deps runs in one streaming pass with memory bounded by
// live timers, so a trace larger than RAM analyses fine; -deps materializes
// per-timer histories and needs O(trace) memory.
//
// The streaming pass decodes and analyses on -j worker goroutines
// (default: all CPUs); output is byte-identical at any worker count, so
// -j only changes wall-clock time. Pass -j 1 to force the serial path.
//
// Several trace files analyse as one logical trace: each file becomes an
// incremental partial merged in sorted file-name order, so the report is
// byte-identical to analysing the concatenation (the same contract the
// live service keeps; see internal/serve).
//
// -serve runs the live trace service instead of an offline analysis: an
// HTTP endpoint ingesting streams from timertrace/experiments producers
// (trace.HTTPSink) with a JSON API and embedded dashboard. The analysis
// flags configure the service's pipeline, so a quiesced server's
// /api/summary matches `timerstat -json -summary` over the same streams.
// -serve refuses -series and -scatter: no endpoint serves either, and a
// series would grow with every record ingested.
//
// Usage:
//
//	timerstat -summary -classes -values trace.bin
//	timerstat -values -user-only -collapse -exclude Xorg,icewm trace.bin
//	timerstat -scatter -origins -series Xorg trace.bin
//	timerstat -summary host-*.trace
//	timerstat -json -summary trace.bin
//	timerstat -serve 127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"timerstudy/internal/analysis"
	"timerstudy/internal/serve"
	"timerstudy/internal/trace"
	"timerstudy/internal/version"
)

func run() int {
	summary := flag.Bool("summary", false, "print the trace summary (Tables 1-2)")
	classes := flag.Bool("classes", false, "print usage-pattern shares (Figure 2)")
	values := flag.Bool("values", false, "print the common-value histogram (Figures 3/5/6/7)")
	userOnly := flag.Bool("user-only", false, "restrict -values to user-space accesses (Figure 6)")
	collapse := flag.Bool("collapse", false, "collapse select countdowns to their initial value (Figure 5)")
	exclude := flag.String("exclude", "", "comma-separated processes to exclude (Figure 5 uses Xorg,icewm)")
	jiffyBin := flag.Bool("jiffies", true, "bin kernel values to jiffies (Linux analysis)")
	minShare := flag.Float64("min-share", 2.0, "histogram share threshold in percent")
	scatter := flag.Bool("scatter", false, "print the expiry/cancel scatter (Figures 8-11)")
	origins := flag.Bool("origins", false, "print the origins table (Table 3)")
	minSets := flag.Int("min-sets", 20, "origins table: minimum sets per origin")
	series := flag.String("series", "", "print the set-time/value dot plot for a process (Figure 4)")
	deps := flag.Bool("deps", false, "infer timer dependency/overlap relations (Section 5.2; needs O(trace) memory)")
	jobs := flag.Int("j", 0, "analysis worker count (0 = all CPUs, 1 = serial); output is identical at any count")
	jsonOut := flag.Bool("json", false, "emit canonical JSON (one of -summary, -values, -origins); byte-identical to the live service's API")
	serveAddr := flag.String("serve", "", "run the live trace service on this address instead of analysing a file")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return 0
	}
	var excl []string
	if *exclude != "" {
		excl = strings.Split(*exclude, ",")
	}

	// One streaming pass computes every requested artifact; a v2 source is
	// consumed incrementally, never materialized.
	p := analysis.Pipeline{
		Values: analysis.ValueOptions{
			UserOnly:           *userOnly,
			ExcludeProcesses:   excl,
			CollapseCountdowns: *collapse,
			JiffyBinKernel:     *jiffyBin,
			MinSharePercent:    *minShare,
		},
		SeriesProcess: *series,
	}
	if *scatter {
		opts := analysis.DefaultScatterOptions()
		opts.ExcludeProcesses = excl
		p.Scatter = &opts
	}
	if *origins {
		p.OriginMinSets = *minSets
	}

	if *serveAddr != "" {
		if err := checkServeFlags(*scatter, *series); err != nil {
			fmt.Fprintf(os.Stderr, "timerstat: %v\n", err)
			return 2
		}
		return runServe(*serveAddr, p)
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: timerstat [flags] trace-file...")
		flag.PrintDefaults()
		return 2
	}
	if !*summary && !*classes && !*values && !*scatter && !*origins && *series == "" && !*deps {
		fmt.Fprintln(os.Stderr, "timerstat: nothing to do; pass -summary, -classes, -values, -scatter, -origins, -series or -deps")
		return 2
	}
	path := flag.Arg(0)
	if *deps && flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "timerstat: -deps analyses a single trace file")
		return 2
	}
	rep, err := analyze(p, flag.Args(), *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "timerstat: %v\n", err)
		return 1
	}

	if *jsonOut {
		return writeJSON(rep, *summary, *values, *origins)
	}

	if *summary {
		s := rep.Summary
		fmt.Print(analysis.RenderSummaryTable("Trace summary", []string{"value"}, []analysis.Summary{s}))
		fmt.Printf("Clustered    %12d (distinct origin+pid)\n\n", s.ClusteredTimers)
	}
	if *classes {
		fmt.Println("Usage patterns (Figure 2):")
		fmt.Print(analysis.RenderClassShares([]string{"share"}, []analysis.ClassShares{rep.Shares}))
		fmt.Println()
	}
	if *values {
		fmt.Printf("Common timeout values (>=%.1f%% of %d samples):\n", *minShare, rep.ValuesTotal)
		fmt.Print(analysis.RenderValues(rep.Values))
		fmt.Println()
	}
	if *scatter {
		fmt.Println("Expiry/cancelation vs timeout (Figures 8-11):")
		fmt.Print(analysis.RenderScatter(rep.Scatter))
		fmt.Println()
	}
	if *origins {
		fmt.Println("Origins (Table 3):")
		fmt.Print(analysis.RenderOrigins(rep.Origins))
		fmt.Println()
	}
	if *series != "" {
		fmt.Printf("Set series for %s (Figure 4), %d points:\n", *series, len(rep.Series))
		fmt.Print(analysis.RenderSeries(rep.Series, rep.End.Sub(0)))
	}
	if *deps {
		// Relations need every use of every timer at once; reopen the file
		// (stream sources are one-shot) and materialize the histories.
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "timerstat: %v\n", err)
			return 1
		}
		src, err := trace.NewStreamReader(f)
		if err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "timerstat: %v\n", err)
			return 1
		}
		ls := analysis.Lifecycles(src)
		f.Close()
		fmt.Println("Inferred timer relations (Section 5.2):")
		fmt.Print(analysis.RenderRelations(analysis.InferRelations(ls, analysis.InferOptions{})))
	}
	return 0
}

// checkServeFlags rejects the analysis flags -serve cannot honour. No
// serve endpoint renders the Figure 4 series or the Figures 8-11 scatter,
// yet the pipeline would fold them into every Partial and the Merger's
// base, and the series keeps every arming of its process: memory that
// grows with the records ingested, against the service's bounded-memory
// rule.
func checkServeFlags(scatter bool, series string) error {
	var bad []string
	if scatter {
		bad = append(bad, "-scatter")
	}
	if series != "" {
		bad = append(bad, "-series")
	}
	if len(bad) > 0 {
		return fmt.Errorf("-serve does not take %s: no endpoint serves the scatter or the set series", strings.Join(bad, " or "))
	}
	return nil
}

// analyze runs the pipeline over the given trace files: one file goes
// through the parallel single-trace path; several files become incremental
// partials merged in sorted file-name order, byte-identical to analysing
// their concatenation.
func analyze(p analysis.Pipeline, paths []string, jobs int) (*analysis.Report, error) {
	if len(paths) == 1 {
		f, err := os.Open(paths[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src, err := trace.NewStreamReader(f)
		if err != nil {
			return nil, err
		}
		return p.RunParallel(src, jobs)
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	parts := make([]*analysis.Partial, 0, len(sorted))
	for _, path := range sorted {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		src, err := trace.NewStreamReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		pa := p.NewPartial()
		err = pa.AddSource(src)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		parts = append(parts, pa)
	}
	return p.MergePartials(parts), nil
}

// writeJSON emits exactly one canonical JSON section — the same bytes the
// live service serves for the equivalent endpoint, which is what the CI
// loopback gate diffs.
func writeJSON(rep *analysis.Report, summary, values, origins bool) int {
	n := 0
	for _, b := range []bool{summary, values, origins} {
		if b {
			n++
		}
	}
	if n != 1 {
		fmt.Fprintln(os.Stderr, "timerstat: -json wants exactly one of -summary, -values, -origins")
		return 2
	}
	switch {
	case summary:
		os.Stdout.Write(rep.SummaryJSON())
	case values:
		os.Stdout.Write(rep.HistogramsJSON())
	case origins:
		os.Stdout.Write(rep.OriginsJSON())
	}
	return 0
}

// runServe runs the live trace service until the process receives SIGINT
// or SIGTERM, then shuts down gracefully: stop accepting, drain in-flight
// ingests, force a final merge, and close the listener — so an interrupted
// check.sh loopback gate never leaks a port or a half-written view. The
// listen line goes to stdout in a fixed format so scripts (scripts/check.sh)
// can scrape the bound address when given port 0.
func runServe(addr string, p analysis.Pipeline) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "timerstat: %v\n", err)
		return 1
	}
	v := version.String()
	log.Printf("timerstat -serve %s", v)
	fmt.Printf("listening on http://%s\n", ln.Addr())
	srv := serve.New(serve.Options{Pipeline: p, Version: v})
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		// Serve only returns on listener failure here; Shutdown's
		// ErrServerClosed cannot arrive before the signal path runs it.
		fmt.Fprintf(os.Stderr, "timerstat: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	log.Printf("timerstat -serve: signal received, shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// Stragglers past the grace period are cut off, not waited for.
		hs.Close()
		fmt.Fprintf(os.Stderr, "timerstat: shutdown: %v\n", err)
	}
	<-done // Serve has returned ErrServerClosed; the port is released.
	records, streams := srv.FinalMerge()
	log.Printf("timerstat -serve: final merge: %d records across %d streams", records, streams)
	return 0
}

func main() {
	os.Exit(run())
}
