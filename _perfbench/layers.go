package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/trace"
)

// The traced run. It measures the chosen workload end to end twice — once
// untraced, once with spans around every layer call — and reports the
// difference as the tracing overhead; then it runs the layer ladders of all
// three workloads, whose spans give the per-layer metrics below. Each
// per-layer metric names the end-to-end metric it should move and the
// workload that shows it.

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	name, unit, better string
	moves, workload    string // the end-to-end metric it should move, and where
}

// evaluationTraces are the paper workload's nine trace labels, in
// EvaluationSpecs order.
var evaluationTraces = []string{
	"linux_idle", "linux_skype", "linux_firefox", "linux_webserver",
	"vista_idle", "vista_skype", "vista_firefox", "vista_webserver", "vista_desktop",
}

// serveRungs is the number of ladder rungs; per-rung metrics are named by
// rung index (rates are in the environment stamp).
const serveRungs = 4

// layerMetrics lists every per-layer metric in the order printed.
var layerMetrics = func() []layerMetric {
	const (
		cap = "capture_records_per_s"
		ana = "analyze_records_per_s"
		ev  = "events_per_s"
		res = "resume_s"
	)
	ms := []layerMetric{
		{"workloads.run_s", "s", "lower", cap + ", " + ev, "paper, fleet"},
		{"sim.events", "count", "lower", cap + ", " + ev, "paper, fleet"},
		{"sim.ns_per_event", "ns", "lower", cap + ", " + ev, "paper, fleet"},
		{"workloads.allocs_per_record", "allocs/record", "lower", cap, "paper"},
		{"trace.encode_s", "s", "lower", cap, "paper"},
		{"trace.bytes_per_record", "B/record", "lower", cap, "paper"},
		{"trace.decode_s", "s", "lower", ana, "paper"},
		{"analysis.fold_s", "s", "lower", ana, "paper"},
		{"analysis.allocs_per_record", "allocs/record", "lower", ana, "paper"},
		{"analysis.render_s", "s", "lower", ana, "paper"},
		{"analysis.parallel_speedup", "x", "higher", ana, "paper"},
	}
	for _, t := range evaluationTraces {
		ms = append(ms,
			layerMetric{"workloads.allocs_per_record." + t, "allocs/record", "lower", cap, "paper"},
			layerMetric{"analysis.allocs_per_record." + t, "allocs/record", "lower", ana, "paper"},
			layerMetric{"sim.events." + t, "count", "lower", cap, "paper"},
		)
	}
	ms = append(ms,
		layerMetric{"analysis.partial_add_us", "us", "lower", "ingest_p99_ms", "serve"},
		layerMetric{"analysis.merge_ms", "ms", "lower", "query_p99_ms", "serve"},
		layerMetric{"control.advance_us_p50", "us", "lower", ev, "fleet"},
		layerMetric{"control.advance_us_p99", "us", "lower", ev, "fleet"},
		layerMetric{"fleet.windows", "count", "lower", ev, "fleet"},
		layerMetric{"fleet.events_per_window", "count", "higher", ev, "fleet"},
		layerMetric{"fleet.messages", "count", "lower", ev, "fleet"},
		layerMetric{"fleet.parallel_speedup", "x", "higher", ev, "fleet"},
		layerMetric{"fleet.allocs_per_event", "allocs/event", "lower", "max_rss_mb", "fleet"},
		layerMetric{"fleet.heap_mb_per_host", "MB", "lower", "max_rss_mb", "fleet"},
		layerMetric{"control.checkpoint_ms", "ms", "lower", res, "fleet"},
		layerMetric{"control.checkpoint_bytes", "B", "lower", res, "fleet"},
		layerMetric{"trace.checkpoint_read_ms", "ms", "lower", res, "fleet"},
		layerMetric{"control.replay_s", "s", "lower", res, "fleet"},
		layerMetric{"serve.ingest_service_ms_p50", "ms", "lower", "ingest_p99_ms", "serve"},
		layerMetric{"serve.ingest_service_ms_p99", "ms", "lower", "ingest_p99_ms", "serve"},
		layerMetric{"serve.query_service_ms_p50", "ms", "lower", "query_p99_ms", "serve"},
		layerMetric{"serve.query_service_ms_p99", "ms", "lower", "query_p99_ms", "serve"},
		layerMetric{"serve.merges", "count", "lower", "query_p99_ms", "serve"},
		layerMetric{"serve.merge_total_ms", "ms", "lower", "query_p99_ms", "serve"},
		layerMetric{"serve.rejected", "count", "lower", "error_rate", "serve"},
		layerMetric{"serve.heap_mb", "MB", "lower", "max_rss_mb", "serve"},
	)
	for i := 1; i <= serveRungs; i++ {
		ms = append(ms,
			layerMetric{fmt.Sprintf("loadgen.lateness_p99_ms.rung%d", i), "ms", "lower", "sustained_records_per_s", "serve"},
			layerMetric{fmt.Sprintf("serve.backlog.rung%d", i), "count", "lower", "sustained_records_per_s", "serve"},
		)
	}
	for _, m := range e2eMetrics {
		ms = append(ms, layerMetric{"tracing.overhead." + m.name, "%", "lower", m.name, "the traced workload"})
	}
	return append(ms, layerMetric{"tracing.spans", "count", "lower", "all", "the traced workload"})
}()

// runTraced is the --trace 1 run.
func runTraced(o options, rep *report) error {
	lm := map[string]float64{}
	half := o
	half.seconds = o.seconds / 2

	fmt.Fprintf(rep.out, "traced run: %s untraced, then traced, %g s each\n", o.workload, half.seconds)
	base, err := runWorkload(half, rep, nil)
	if err != nil {
		return err
	}
	rssBefore := maxRSSMB()
	tr := newTracer(uint64(time.Now().UnixNano()))
	traced, err := runWorkload(half, rep, tr)
	if err != nil {
		return err
	}
	b, t := base.values(), traced.values()
	for i, m := range e2eMetrics {
		cost := (t[i] - b[i]) / b[i] * 100
		if m.name == "max_rss_mb" {
			// The peak is process-wide; the traced pass can only raise it.
			cost = (t[i] - rssBefore) / rssBefore * 100
		}
		lm["tracing.overhead."+m.name] = cost
	}

	fmt.Fprintln(rep.out, "layer ladders: paper, fleet, serve")
	if err := paperLadder(o, rep, tr, lm); err != nil {
		return err
	}
	if err := fleetLadder(o, rep, tr, lm); err != nil {
		return err
	}
	if err := serveLadder(o, rep, tr, lm); err != nil {
		return err
	}
	lm["tracing.spans"] = float64(tr.count())
	if o.spansOut != "" {
		if err := tr.write(o.spansOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(rep.out, "spans: %d written to %s\n", tr.count(), o.spansOut)
	}

	fmt.Fprintln(rep.out, "per-layer metrics (metric, value, unit -> end-to-end metric it should move, on which workload):")
	for _, m := range layerMetrics {
		v, ok := lm[m.name]
		if !ok {
			rep.op(fmt.Errorf("traced run did not measure %s", m.name))
			continue
		}
		fmt.Fprintf(rep.out, "  %-44s %14.6g %-14s -> %s (%s)\n", m.name, v, m.unit, m.moves, m.workload)
		rep.set(m.name, v, m.unit)
	}
	return nil
}

// countSink is the no-op rung's sink: it interns origins like every sink
// (the IDs feed the records) and counts records, storing nothing.
type countSink struct {
	ids     map[string]uint32
	records uint64
}

func (s *countSink) Origin(name string) uint32 {
	id, ok := s.ids[name]
	if !ok {
		id = uint32(len(s.ids) + 1)
		s.ids[name] = id
	}
	return id
}

func (s *countSink) Log(trace.Record) { s.records++ }

// paperLadder runs each evaluation trace serially through the layer
// ladder: simulation into a counting no-op sink, simulation into a
// StreamWriter, decode alone, RunParallel, render, and serial Run. The
// differences between rungs attribute time and allocations to the engine
// and facilities, the codec and the analysis fold.
func paperLadder(o options, rep *report, tr *tracer, lm map[string]float64) error {
	sc := paperScaleFor(o)
	r := newPaperRunner(sc, o.seed, sc.VirtualS)
	pipe := paperPipeline()
	root := tr.begin("ladder.paper", 0, false)
	defer root.end()
	var runD, encD, decD, foldD, renderD, serialD, parD time.Duration
	var records, events, bytesOut uint64
	var simAllocs, anaAllocs int64
	for i, spec := range r.specs {
		name := traceName(spec)
		parent := tr.begin("ladder.paper."+name, root.spanID(), false)

		noop := &countSink{ids: map[string]uint32{}}
		s := spec
		s.Cfg.Sink = noop
		sp := tr.begin("workloads.run.noop_sink", parent.spanID(), true)
		res := s.Run()
		a := sp.end()

		var buf bytes.Buffer
		sw := trace.NewStreamWriter(&buf)
		s.Cfg.Sink = sw
		sp = tr.begin("workloads.run.stream_writer", parent.spanID(), true)
		s.Run()
		err := sw.Close()
		b := sp.end()
		c := sw.Counters()
		if err == nil && noop.records != c.Total {
			err = fmt.Errorf("no-op sink counted %d records, stream writer %d", noop.records, c.Total)
		}
		rep.op(wrap("paper ladder "+name, err))

		sr, err := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			rep.op(wrap("paper ladder "+name, err))
			parent.end()
			continue
		}
		sp = tr.begin("trace.decode", parent.spanID(), true)
		err = sr.ForEachChunk(sc.Parallel, func(trace.Chunk) error { return nil })
		d := sp.end()
		rep.op(wrap("paper ladder decode "+name, err))

		sr, _ = trace.NewStreamReader(bytes.NewReader(buf.Bytes())) // opened above; cannot fail
		sp = tr.begin("analysis.run_parallel", parent.spanID(), true)
		rp, err := pipe.RunParallel(sr, sc.Parallel)
		f := sp.end()
		if err == nil {
			err = checkTotals(rp.Summary, c)
		}
		rep.op(wrap("paper ladder analyse "+name, err))
		if err != nil {
			parent.end()
			continue
		}
		sp = tr.begin("analysis.render", parent.spanID(), false)
		rp.SummaryJSON()
		rp.HistogramsJSON()
		rp.OriginsJSON()
		rd := sp.end()

		sr, _ = trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
		sp = tr.begin("analysis.run", parent.spanID(), false)
		_, err = pipe.Run(sr)
		sd := sp.end()
		rep.op(wrap("paper ladder serial analyse "+name, err))
		parent.end()

		n := c.Total
		wAllocs := int64(a.Allocs)
		aAllocs := int64(f.Allocs) - int64(d.Allocs)
		lm["workloads.allocs_per_record."+evaluationTraces[i]] = float64(wAllocs) / float64(n)
		lm["analysis.allocs_per_record."+evaluationTraces[i]] = float64(aAllocs) / float64(n)
		lm["sim.events."+evaluationTraces[i]] = float64(res.Stats.Events)
		runD += a.dur()
		encD += b.dur() - a.dur()
		decD += d.dur()
		foldD += f.dur() - d.dur()
		renderD += rd.dur()
		serialD += sd.dur()
		parD += f.dur()
		records += n
		events += res.Stats.Events
		bytesOut += uint64(buf.Len())
		simAllocs += wAllocs
		anaAllocs += aAllocs
	}
	lm["workloads.run_s"] = runD.Seconds()
	lm["sim.events"] = float64(events)
	lm["sim.ns_per_event"] = float64(runD.Nanoseconds()) / float64(events)
	lm["workloads.allocs_per_record"] = float64(simAllocs) / float64(records)
	lm["trace.encode_s"] = encD.Seconds()
	lm["trace.bytes_per_record"] = float64(bytesOut) / float64(records)
	lm["trace.decode_s"] = decD.Seconds()
	lm["analysis.fold_s"] = foldD.Seconds()
	lm["analysis.allocs_per_record"] = float64(anaAllocs) / float64(records)
	lm["analysis.render_s"] = renderD.Seconds()
	lm["analysis.parallel_speedup"] = serialD.Seconds() / parD.Seconds()
	return nil
}

// fleetLadder runs one traced steered cycle (a span per Plane.Advance),
// measures the built plane's heap, and times an unsteered plain run at one
// worker and at GOMAXPROCS workers for the parallel speedup.
func fleetLadder(o options, rep *report, tr *tracer, lm map[string]float64) error {
	sc := fleetScaleFor(o)
	root := tr.begin("ladder.fleet", 0, false)
	defer root.end()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp := tr.begin("fleet.build", root.spanID(), true)
	p, err := sc.newPlane(o.seed, sc.Workers)
	sp.end()
	rep.op(err)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	hosts := float64(sc.Webservers + sc.Desktops)
	lm["fleet.heap_mb_per_host"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6 / hosts

	c, ops := runCycle(sc, p, tr, root.spanID(), nil)
	for _, err := range ops {
		rep.op(err)
	}
	adv := make([]float64, len(c.advanceSpans))
	for i, d := range c.advanceSpans {
		adv[i] = float64(d) / float64(time.Microsecond)
	}
	lm["control.advance_us_p50"] = percentile(adv, 0.5)
	lm["control.advance_us_p99"] = percentile(adv, 0.99)
	lm["fleet.windows"] = float64(c.stats.Windows)
	lm["fleet.events_per_window"] = float64(c.stats.Events) / float64(c.stats.Windows)
	lm["fleet.messages"] = float64(c.stats.Sent)
	lm["fleet.allocs_per_event"] = float64(c.allocs) / float64(c.stats.Events)
	lm["control.checkpoint_ms"] = ms(c.checkpoint)
	lm["control.checkpoint_bytes"] = float64(c.cpBytes)
	lm["trace.checkpoint_read_ms"] = ms(c.read)
	lm["control.replay_s"] = c.replay.Seconds()

	// Parallel speedup on the same steered spec, without checkpoints.
	var walls [2]time.Duration
	var digests [2]uint64
	for i, workers := range []int{1, sc.Parallel} {
		p, err := sc.newPlane(o.seed, workers)
		rep.op(err)
		if err != nil {
			return err
		}
		sp := tr.begin(fmt.Sprintf("fleet.run.workers%d", workers), root.spanID(), false)
		p.Finish()
		walls[i] = sp.end().dur()
		digests[i] = p.Fleet().Digest()
	}
	var err2 error
	if digests[0] != digests[1] || digests[0] != c.digest {
		err2 = fmt.Errorf("fleet ladder: digests differ across worker counts: %016x %016x %016x", digests[0], digests[1], c.digest)
	}
	rep.op(err2)
	lm["fleet.parallel_speedup"] = walls[0].Seconds() / walls[1].Seconds()
	return nil
}

// serveLadder folds every stream's batches into a Partial offline (timing
// each AddChunk), merges the partials against the oracle, then runs the
// rung ladder once with a span per request.
func serveLadder(o options, rep *report, tr *tracer, lm map[string]float64) error {
	sc := serveScaleFor(o)
	pipe := paperPipeline()
	root := tr.begin("ladder.serve", 0, false)
	defer root.end()
	in, err := buildServeInput(sc, o.seed, pipe)
	rep.op(err)
	if err != nil {
		return err
	}

	parts := make([]*analysis.Partial, len(in.batches))
	var addD time.Duration
	chunks := 0
	for s, batches := range in.batches {
		dec := trace.NewFrameDecoder()
		pa := pipe.NewPartial()
		var err error
		for _, b := range batches {
			err = dec.Feed(b, func(c trace.Chunk) error {
				t0 := time.Now()
				pa.AddChunk(c)
				t1 := time.Now()
				tr.record("analysis.partial_add", root.spanID(), t0, t1)
				addD += t1.Sub(t0)
				chunks++
				return nil
			})
			if err != nil {
				break
			}
		}
		rep.op(wrap("serve ladder decode "+in.names[s], err))
		parts[s] = pa
	}
	lm["analysis.partial_add_us"] = float64(addD) / float64(time.Microsecond) / float64(chunks)
	sp := tr.begin("analysis.merge_partials", root.spanID(), false)
	merged := pipe.MergePartials(parts)
	lm["analysis.merge_ms"] = ms(sp.end().dur())
	var mergeErr error
	if !bytes.Equal(merged.SummaryJSON(), in.oracle["/api/summary"]) ||
		!bytes.Equal(merged.OriginsJSON(), in.oracle["/api/origins"]) ||
		!bytes.Equal(merged.HistogramsJSON(), in.oracle["/api/histograms"]) {
		mergeErr = fmt.Errorf("serve ladder: merged partials differ from the offline oracle")
	}
	rep.op(mergeErr)

	for i, rate := range sc.Rates {
		r, err := runRung(sc, in, pipe, rate, tr, root.spanID(), nil)
		if err != nil {
			return err
		}
		recordRung(rep, r)
		lm[fmt.Sprintf("loadgen.lateness_p99_ms.rung%d", i+1)] = percentile(r.lateness(), 0.99)
		lm[fmt.Sprintf("serve.backlog.rung%d", i+1)] = float64(r.backlog)
		if rate != sc.Nominal {
			continue
		}
		ing, q := r.service()
		lm["serve.ingest_service_ms_p50"] = percentile(ing, 0.5)
		lm["serve.ingest_service_ms_p99"] = percentile(ing, 0.99)
		lm["serve.query_service_ms_p50"] = percentile(q, 0.5)
		lm["serve.query_service_ms_p99"] = percentile(q, 0.99)
		lm["serve.merges"] = float64(r.metrics.Merges)
		lm["serve.merge_total_ms"] = r.metrics.MergeTotalMS
		lm["serve.rejected"] = float64(r.metrics.Rejected)
		lm["serve.heap_mb"] = float64(r.metrics.HeapAllocBytes) / 1e6
	}
	return nil
}

// wrap prefixes a non-nil error with context.
func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
