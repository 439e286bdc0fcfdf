package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/serve"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// The serve workload is the live trace service on a loopback listener
// under an open-loop load: a single-process generator POSTs pre-encoded,
// frame-aligned ingest batches of 16 host streams on a fixed schedule and,
// on its own fixed schedule, queries /api/summary, /api/origins and
// /api/histograms round-robin. Each rung of a ladder of offered record
// rates runs against a fresh server that ingests all 16 streams; after the
// rung the quiesced server's three sections must be byte-identical to the
// offline oracle. Simulation, encoding and the oracle are set-up.

// serveScale is the serve workload's fixed configuration.
type serveScale struct {
	Streams      int       `json:"streams"`
	VirtualS     float64   `json:"virtual_s"`            // simulated time per host stream (linux idle)
	BatchRecords int       `json:"batch_records"`        // records per ingest POST (one frame)
	Rates        []float64 `json:"rates"`                // offered ladder, records/s
	Nominal      float64   `json:"nominal_rate"`         // the rung whose latencies are reported
	QueryRate    float64   `json:"query_rate"`           // queries/s on every rung
	TailQ        float64   `json:"ingest_tail_quantile"` // ingest tail percentile, held to the limit
	QueryTailQ   float64   `json:"query_tail_quantile"`  // query tail percentile reported beside p99
	LimitMS      float64   `json:"ingest_latency_limit_ms"`
	Conns        int       `json:"connections"` // generator connections (nproc)
	SetupReps    int       `json:"setup_reps"`
}

func serveScaleFor(o options) serveScale {
	s := serveScale{Streams: 16, VirtualS: 300, BatchRecords: 1024,
		Rates: []float64{100e3, 200e3, 400e3, 3.2e6}, Nominal: 100e3,
		QueryRate: 100, TailQ: 0.99, QueryTailQ: 0.98, LimitMS: 50,
		Conns: runtime.NumCPU(), SetupReps: 3}
	if o.tiny {
		s.Streams, s.VirtualS, s.BatchRecords, s.SetupReps = 4, 20, 256, 1
		s.Rates, s.Nominal = []float64{25e3, 50e3, 100e3, 200e3}, 25e3
	}
	return s
}

// servePaths are the queried sections, round-robin.
var servePaths = []string{"/api/summary", "/api/origins", "/api/histograms"}

// serveInput is the set-up product: every stream's ingest batches and the
// oracle's rendered sections.
type serveInput struct {
	names           []string
	batches         [][][]byte // stream → batch → encoded frames
	perBatchRecords [][]int    // stream → batch → records in it
	total           int
	oracle          map[string][]byte // path → body
}

// buildServeInput simulates the host streams, namespaces their timer IDs
// (the service's merge assumes disjoint identities across streams, which
// distinct hosts guarantee), encodes them into frame-aligned batches and
// computes the offline oracle over the name-order concatenation.
func buildServeInput(sc serveScale, seed int64, pipe analysis.Pipeline) (*serveInput, error) {
	specs := make([]workloads.Spec, sc.Streams)
	for i := range specs {
		specs[i] = workloads.Spec{OS: "linux", Name: workloads.Idle, Cfg: workloads.Config{
			Seed:     seed + int64(i),
			Duration: sim.Duration(sc.VirtualS * float64(sim.Second)),
		}}
	}
	in := &serveInput{
		names:           make([]string, sc.Streams),
		batches:         make([][][]byte, sc.Streams),
		perBatchRecords: make([][]int, sc.Streams),
	}
	traces := make([]*trace.Buffer, len(specs))
	for i, res := range workloads.RunAll(specs, 0) {
		traces[i] = res.Trace
	}
	for i, b := range traces {
		recs := b.Records()
		for j := range recs {
			recs[j].TimerID |= uint64(i+1) << 48
		}
		in.names[i] = fmt.Sprintf("host-%02d", i)
		var err error
		in.batches[i], in.perBatchRecords[i], err = encodeBatches(b, sc.BatchRecords)
		if err != nil {
			return nil, err
		}
		in.total += len(recs)
	}
	oracle := trace.NewBuffer(in.total)
	for _, b := range traces { // names sort in index order
		for _, r := range b.Records() {
			r.Origin = oracle.Origin(b.OriginName(r.Origin))
			oracle.Log(r)
		}
	}
	rep, err := pipe.Run(oracle)
	if err != nil {
		return nil, fmt.Errorf("serve: oracle: %w", err)
	}
	in.oracle = map[string][]byte{
		"/api/summary":    rep.SummaryJSON(),
		"/api/origins":    rep.OriginsJSON(),
		"/api/histograms": rep.HistogramsJSON(),
	}
	return in, nil
}

// encodeBatches encodes a trace as a v2 stream cut into frame-aligned
// batches of batchRecords records; the last batch carries the counters
// footer.
func encodeBatches(b *trace.Buffer, batchRecords int) ([][]byte, []int, error) {
	var cur bytes.Buffer
	sw := trace.NewStreamWriterSize(&cur, batchRecords)
	var batches [][]byte
	var counts []int
	pending := 0
	cut := func() {
		batches = append(batches, append([]byte(nil), cur.Bytes()...))
		counts = append(counts, pending)
		cur.Reset()
		pending = 0
	}
	for _, r := range b.Records() {
		r.Origin = sw.Origin(b.OriginName(r.Origin))
		sw.Log(r)
		pending++
		if pending == batchRecords {
			sw.Flush()
			cut()
		}
	}
	if err := sw.Close(); err != nil {
		return nil, nil, fmt.Errorf("serve: encode: %w", err)
	}
	cut()
	return batches, counts, nil
}

// request is one scheduled generator request and, after the rung, its
// timings relative to the rung's start.
type request struct {
	due    time.Duration
	query  bool
	stream int // ingest: stream index
	seq    int // ingest: batch index; query: path index
	start  time.Duration
	end    time.Duration
	err    error
}

// rungResult summarises one ladder rung.
type rungResult struct {
	rate       float64
	reqs       []request
	schedEnd   time.Duration // last due time
	lastIngest time.Duration // last ingest completion
	records    int
	backlog    int // ingest requests due before schedEnd but not yet sent at it
	failed     int
	oracleErrs []error
	metrics    serve.MetricsSnapshot
	metricsErr error
}

// latency is a request's time from due to completion.
func (r request) latency() time.Duration { return r.end - r.due }

// schedule lays out a rung: ingest batches interleaved round-robin across
// streams, each due when the offered rate has produced the records before
// it; queries at the fixed query rate over the same span. Requests are
// split over conns generator connections: with two or more, queries get
// the first to themselves, so a query stalled behind a merge never delays
// an ingest; a stream's batches stay on one connection, since the service
// requires each stream in order.
func schedule(sc serveScale, in *serveInput, rate float64) [][]request {
	lanes := make([][]request, sc.Conns)
	ingestLane := func(s int) int { return s % sc.Conns }
	if sc.Conns > 1 {
		ingestLane = func(s int) int { return 1 + s%(sc.Conns-1) }
	}
	maxBatches := 0
	for _, b := range in.batches {
		if len(b) > maxBatches {
			maxBatches = len(b)
		}
	}
	sent := 0
	var last time.Duration
	for j := 0; j < maxBatches; j++ {
		for s := range in.batches {
			if j >= len(in.batches[s]) {
				continue
			}
			due := time.Duration(float64(sent) / rate * float64(time.Second))
			l := ingestLane(s)
			lanes[l] = append(lanes[l], request{due: due, stream: s, seq: j})
			sent += in.perBatchRecords[s][j]
			last = due
		}
	}
	step := time.Duration(float64(time.Second) / sc.QueryRate)
	for q := 0; time.Duration(q)*step <= last; q++ {
		lanes[0] = append(lanes[0], request{due: time.Duration(q) * step, query: true, seq: q % len(servePaths)})
	}
	for _, l := range lanes {
		sort.SliceStable(l, func(a, b int) bool { return l[a].due < l[b].due })
	}
	return lanes
}

// loopback is a fresh service on a loopback listener.
type loopback struct {
	hs     *http.Server
	url    string
	client *http.Client
	tr     *http.Transport
	done   chan struct{}
}

func startLoopback(pipe analysis.Pipeline, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Pipeline: pipe, Version: "perfbench"})
	lb := &loopback{
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	lb.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	lb.client = &http.Client{Transport: lb.tr, Timeout: 30 * time.Second}
	go func() {
		defer close(lb.done)
		lb.hs.Serve(ln)
	}()
	return lb, nil
}

// stop shuts the service down and waits for its serve loop to exit.
func (lb *loopback) stop() {
	lb.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.hs.Shutdown(ctx); err != nil {
		lb.hs.Close()
	}
	<-lb.done
}

// do sends one request and drains its response.
func (lb *loopback) do(in *serveInput, r *request) error {
	var req *http.Request
	var err error
	if r.query {
		req, err = http.NewRequest(http.MethodGet, lb.url+servePaths[r.seq], nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, lb.url+"/api/ingest", bytes.NewReader(in.batches[r.stream][r.seq]))
		if err == nil {
			req.Header.Set(trace.HeaderStream, in.names[r.stream])
			req.Header.Set(trace.HeaderSeq, strconv.Itoa(r.seq))
			req.Header.Set(trace.HeaderInstance, "perfbench")
		}
	}
	if err != nil {
		return err
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	return cerr
}

// get fetches one path's body.
func (lb *loopback) get(path string) ([]byte, error) {
	resp, err := lb.client.Get(lb.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// runRung drives one ladder rung against a fresh service: every lane sends
// its requests at their due times (never earlier; late when the lane is
// behind), then the quiesced service is checked against the oracle.
// withhold, when non-nil, names a batch to skip (the self-tests use it).
func runRung(sc serveScale, in *serveInput, pipe analysis.Pipeline, rate float64, tr *tracer, parent uint64, withhold *request) (rungResult, error) {
	lb, err := startLoopback(pipe, sc.Conns)
	if err != nil {
		return rungResult{}, err
	}
	defer lb.stop()
	lanes := schedule(sc, in, rate)
	res := rungResult{rate: rate, records: in.total}
	root := tr.begin("serve.rung", parent, false)
	t0 := time.Now()
	var wg sync.WaitGroup
	for li := range lanes {
		wg.Add(1)
		go func(lane []request) {
			defer wg.Done()
			for i := range lane {
				r := &lane[i]
				if wait := r.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				if withhold != nil && !r.query && r.stream == withhold.stream && r.seq == withhold.seq {
					r.start = time.Since(t0)
					r.end = r.start
					continue
				}
				s := time.Now()
				r.err = lb.do(in, r)
				e := time.Now()
				r.start, r.end = s.Sub(t0), e.Sub(t0)
				if tr != nil {
					name := "serve.ingest"
					if r.query {
						name = "serve.query"
					}
					tr.record(name, root.spanID(), s, e)
				}
			}
		}(lanes[li])
	}
	wg.Wait()
	root.end()

	for _, l := range lanes {
		for _, r := range l {
			res.reqs = append(res.reqs, r)
			if r.due > res.schedEnd {
				res.schedEnd = r.due
			}
			if !r.query && r.end > res.lastIngest {
				res.lastIngest = r.end
			}
			if r.err != nil {
				res.failed++
			}
		}
	}
	for _, r := range res.reqs {
		if !r.query && r.due < res.schedEnd && r.start > res.schedEnd {
			res.backlog++
		}
	}

	// Quiesced: every stream delivered its footer, so the merged view must
	// equal the offline oracle byte for byte.
	for _, path := range servePaths {
		body, err := lb.get(path)
		switch {
		case err != nil:
			res.oracleErrs = append(res.oracleErrs, fmt.Errorf("serve: rung %.0f/s: %w", rate, err))
		case !bytes.Equal(body, in.oracle[path]):
			res.oracleErrs = append(res.oracleErrs, fmt.Errorf("serve: rung %.0f/s: %s differs from the offline oracle", rate, path))
		default:
			res.oracleErrs = append(res.oracleErrs, nil)
		}
	}
	body, err := lb.get("/api/metrics")
	if err == nil {
		err = json.Unmarshal(body, &res.metrics)
	}
	res.metricsErr = err
	return res, nil
}

// latencies returns the rung's latencies (from due) in ms, split by kind;
// a failed request counts as missing the limit.
func (r rungResult) latencies(limitMS float64) (ingest, query []float64) {
	for _, q := range r.reqs {
		v := ms(q.latency())
		if q.err != nil && v <= limitMS {
			v = limitMS * 2
		}
		if q.query {
			query = append(query, v)
		} else {
			ingest = append(ingest, v)
		}
	}
	return ingest, query
}

// rungPasses reports whether a rung, pooled over its repeats, met the
// ingest latency limit at the tail percentile, failed nothing, and kept
// up: a generator falling behind an overloaded service delivers
// measurably less than the offered rate, its backlog growing through the
// rung.
func rungPasses(sc serveScale, rate float64, failed int, ingestMS []float64, achieved float64) bool {
	return failed == 0 && percentile(ingestMS, sc.TailQ) <= sc.LimitMS && achieved >= keepUp*rate
}

// keepUp is the share of the offered rate a passing rung must deliver.
const keepUp = 0.95

// achieved is the delivered record rate: records over the time from the
// rung's start to its last ingest completion.
func (r rungResult) achieved() float64 {
	return float64(r.records) / r.lastIngest.Seconds()
}

// lateness returns each request's send lateness in ms.
func (r rungResult) lateness() []float64 {
	out := make([]float64, len(r.reqs))
	for i, q := range r.reqs {
		out[i] = ms(q.start - q.due)
	}
	return out
}

// service returns the request round trips (lateness excluded) in ms.
func (r rungResult) service() (ingest, query []float64) {
	for _, q := range r.reqs {
		if q.query {
			query = append(query, ms(q.end-q.start))
		} else {
			ingest = append(ingest, ms(q.end-q.start))
		}
	}
	return ingest, query
}

// recordRung counts a rung's operations on rep: every request, the three
// oracle comparisons and the metrics read.
func recordRung(rep *report, r rungResult) {
	for _, q := range r.reqs {
		var err error
		if q.err != nil {
			err = fmt.Errorf("serve: rung %.0f/s: %w", r.rate, q.err)
		}
		rep.op(err)
	}
	for _, err := range r.oracleErrs {
		rep.op(err)
	}
	rep.op(r.metricsErr)
}

// runServe measures the serve workload.
func runServe(o options, rep *report, tr *tracer) (e2e, error) {
	sc := serveScaleFor(o)
	pipe := paperPipeline()

	var setups, setupWall []float64
	var in *serveInput
	for i := 0; i < sc.SetupReps; i++ {
		in = nil
		runtime.GC()
		sp := tr.begin("serve.setup", 0, false)
		c0, t0 := cpuTime(), time.Now()
		var err error
		in, err = buildServeInput(sc, o.seed, pipe)
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		sp.end()
		rep.op(err)
		if err != nil {
			return e2e{}, err
		}
	}

	// The ladder is run in full at least once, then rungs repeat in order
	// until the time is up; every rung's samples pool across repeats.
	dl := newDeadline(o.seconds)
	byRate := map[float64][]rungResult{}
	var cpu time.Duration
	records := 0
	for round := 0; round < 1 || !dl.passed(); round++ {
		for _, rate := range sc.Rates {
			runtime.GC() // each rung starts from a collected heap
			c0 := cpuTime()
			r, err := runRung(sc, in, pipe, rate, tr, 0, nil)
			cpu += cpuTime() - c0
			records += in.total
			if err != nil {
				return e2e{}, err
			}
			recordRung(rep, r)
			byRate[rate] = append(byRate[rate], r)
		}
	}
	serveSummary(sc, rep, byRate)
	m := e2e{setupS: median(setups), cpuUS: us(cpu) / float64(records)}
	rep.line("setup_s", m.setupS, "s", len(setups), "CPU time to simulate, encode and compute the oracle for 16 streams (median)")
	rep.line("setup_wall_s", median(setupWall), "s", len(setupWall), "wall time of the same (median)")
	rep.line("cpu_us_per_item", m.cpuUS, "us", len(sc.Rates)*len(byRate[sc.Nominal]), "process CPU time per record ingested, over every rung: service, generator, queries, merges")
	return m, nil
}

// serveSummary prints the rungs and the nominal rate's latencies.
func serveSummary(sc serveScale, rep *report, byRate map[float64][]rungResult) {
	sustained, achieved := 0.0, 0.0
	for _, rate := range sc.Rates {
		rs := byRate[rate]
		var ach, late, ing []float64
		backlog, failed := 0, 0
		var merges uint64
		var mergeMS float64
		for _, r := range rs {
			merges += r.metrics.Merges
			mergeMS += r.metrics.MergeTotalMS
			ach = append(ach, r.achieved())
			late = append(late, r.lateness()...)
			i, _ := r.latencies(sc.LimitMS)
			ing = append(ing, i...)
			backlog = max(backlog, r.backlog)
			failed += r.failed
		}
		pass := rungPasses(sc, rate, failed, ing, median(ach))
		fmt.Fprintf(rep.out, "serve: rung %8.0f records/s x%d: pass=%v achieved %.0f/s, ingest p%g %.2f ms, lateness p99 %.2f ms, max end-of-step backlog %d, %d merges %.0f ms\n",
			rate, len(rs), pass, median(ach), sc.TailQ*100, percentile(ing, sc.TailQ), percentile(late, 0.99), backlog, merges, mergeMS)
		if pass && rate > sustained {
			sustained, achieved = rate, median(ach)
		}
	}
	var ing, q []float64
	for _, r := range byRate[sc.Nominal] {
		i, qq := r.latencies(sc.LimitMS)
		ing = append(ing, i...)
		q = append(q, qq...)
	}
	itail := fmt.Sprintf("p%g", sc.TailQ*100)
	qtail := fmt.Sprintf("p%g", sc.QueryTailQ*100)
	rep.line("ingest_p50_ms", percentile(ing, 0.5), "ms", len(ing), "ingest latency from due, nominal rate")
	rep.line("ingest_"+itail+"_ms", percentile(ing, sc.TailQ), "ms", len(ing), "ingest latency from due, nominal rate")
	rep.line("query_p50_ms", percentile(q, 0.5), "ms", len(q), "query latency from due, nominal rate")
	rep.line("query_p99_ms", percentile(q, 0.99), "ms", len(q), "query latency from due, nominal rate")
	rep.line("query_"+qtail+"_ms", percentile(q, sc.QueryTailQ), "ms", len(q), "query latency from due, nominal rate")
	rep.line("sustained_records_per_s", sustained, "1/s", len(sc.Rates), "highest offered rung meeting the ingest limit without backlog")
	rep.line("sustained_achieved_per_s", achieved, "1/s", len(byRate[sustained]), "records/s delivered on that rung (median)")
}
