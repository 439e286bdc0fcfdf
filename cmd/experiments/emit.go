package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/serve"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// Live-service integration: -emit streams every experiment trace to a
// running `timerstat -serve` while the simulations execute, and
// -serve-bench runs the whole loop in-process — producers × readers over a
// loopback listener — to measure the service's ingest and query throughput
// for the benchmark report.

var (
	emitFl           = flag.String("emit", "", "stream traces to a live timerstat -serve service at this base URL while running")
	serveProducersFl = flag.Int("serve-producers", 8, "serve-bench: concurrent producer streams")
	serveReadersFl   = flag.Int("serve-readers", 4, "serve-bench: concurrent API readers")
)

// emitTrace replays a finished run's in-memory trace to the -emit service
// under the given stream name. Emission is observability export, not part
// of the experiment: failures warn and drop, they never fail the run.
func emitTrace(url, name string, b *trace.Buffer) {
	sink, err := trace.NewHTTPSink(url, name, trace.HTTPSinkOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", name, err)
		return
	}
	for _, r := range b.Records() {
		r.Origin = sink.Origin(b.OriginName(r.Origin))
		sink.Log(r)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -emit %s: %v\n", name, err)
	}
	if st := sink.Stats(); st.DroppedFrames > 0 {
		fmt.Fprintf(os.Stderr, "experiments: -emit %s: dropped %d frames (%d records)\n",
			name, st.DroppedFrames, st.DroppedRecords)
	}
}

// serveBench is the "serve" key of the benchmark JSON report.
type serveBench struct {
	Producers        int     `json:"producers"`
	Readers          int     `json:"readers"`
	Streams          uint64  `json:"streams"`
	Records          uint64  `json:"records"`
	WireBytes        uint64  `json:"wire_bytes"`
	Queries          uint64  `json:"queries"`
	WallMS           float64 `json:"wall_ms"`
	RecordsPerSec    float64 `json:"ingest_records_per_sec"`
	MBPerSec         float64 `json:"ingest_mb_per_sec"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	Merges           uint64  `json:"merges"`
	MergeLastMS      float64 `json:"merge_last_ms"`
	ServerHeapMB     float64 `json:"server_heap_mb"`
	DeterministicOff bool    `json:"matches_offline"`
}

// runServeBench measures the live service end to end on a loopback
// listener: N producers each simulate a workload and stream it through
// trace.HTTPSink while M readers poll the query API; after quiescing, the
// merged summary is diffed against the offline pipeline over the same
// traces (concatenated in stream-name order) — the same determinism
// contract the serve tests and the CI loopback gate pin.
func runServeBench() int {
	producers, readers := *serveProducersFl, *serveReadersFl
	if producers < 1 || readers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -serve-producers must be >=1, -serve-readers >=0")
		return 2
	}
	dur := sim.FromStd(*durFlag)
	if *quick {
		dur = 2 * sim.Minute
	}
	p := benchPipeline()
	srv := serve.New(serve.Options{Pipeline: p, Version: "serve-bench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	url := "http://" + ln.Addr().String()

	fmt.Printf("serve-bench: %d producers x %d readers, %v virtual per producer, seed %d\n",
		producers, readers, dur, *seedFlag)

	// Pre-simulate every producer's trace so the measured window is the
	// service (ingest + merge + query), not the simulator. Timer identities
	// are namespaced per producer — the serve/offline equivalence is over
	// streams with disjoint timer IDs, which distinct hosts guarantee.
	bufs := make([]*trace.Buffer, producers)
	names := make([]string, producers)
	for i := range bufs {
		cfg := workloads.Config{Seed: *seedFlag + int64(i), Duration: dur}
		res := workloads.RunLinux(workloads.Idle, cfg)
		recs := res.Trace.Records()
		for j := range recs {
			recs[j].TimerID |= uint64(i+1) << 48
		}
		bufs[i] = res.Trace
		names[i] = fmt.Sprintf("bench-%03d", i)
	}

	stop := make(chan struct{})
	var queries uint64
	var qmu sync.Mutex
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			paths := []string{"/api/summary", "/api/origins", "/api/histograms", "/api/rates?window=30", "/api/streams", "/api/metrics"}
			n := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					qmu.Lock()
					queries += n
					qmu.Unlock()
					return
				default:
				}
				resp, err := http.Get(url + paths[(r+i)%len(paths)])
				if err == nil {
					resp.Body.Close()
					n++
				}
			}
		}(r)
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			emitTrace(url, names[i], bufs[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	close(stop)
	rg.Wait()

	// Quiesced determinism check against the offline pipeline.
	resp, err := http.Get(url + "/api/summary")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: serve-bench summary: %v\n", err)
		return 1
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: serve-bench summary: %v\n", err)
		return 1
	}
	total := 0
	for _, b := range bufs {
		total += len(b.Records())
	}
	oracle := trace.NewBuffer(total)
	for _, b := range bufs { // names are already in lexicographic order
		for _, r := range b.Records() {
			r.Origin = oracle.Origin(b.OriginName(r.Origin))
			oracle.Log(r)
		}
	}
	rep, err := p.Run(oracle)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: serve-bench oracle: %v\n", err)
		return 1
	}
	matches := string(served) == string(rep.SummaryJSON())
	if !matches {
		fmt.Fprintln(os.Stderr, "experiments: SERVE NONDETERMINISM: /api/summary != offline pipeline")
	}

	met := srv.Metrics.Snapshot("serve-bench", wall)
	sb := serveBench{
		Producers:        producers,
		Readers:          readers,
		Streams:          met.StreamsClosed,
		Records:          met.IngestRecords,
		WireBytes:        met.IngestBytes,
		Queries:          queries,
		WallMS:           wall.Seconds() * 1e3,
		RecordsPerSec:    float64(met.IngestRecords) / wall.Seconds(),
		MBPerSec:         float64(met.IngestBytes) / 1e6 / wall.Seconds(),
		QueriesPerSec:    float64(queries) / wall.Seconds(),
		Merges:           met.Merges,
		MergeLastMS:      met.MergeLastMS,
		ServerHeapMB:     float64(met.HeapAllocBytes) / 1e6,
		DeterministicOff: matches,
	}
	fmt.Printf("serve-bench: %d records (%d MB wire) in %.0f ms: %.0f records/sec, %.1f MB/sec\n",
		sb.Records, sb.WireBytes>>20, sb.WallMS, sb.RecordsPerSec, sb.MBPerSec)
	fmt.Printf("serve-bench: %d queries (%.0f/sec), %d merges (last %.1f ms), offline match=%v\n",
		sb.Queries, sb.QueriesPerSec, sb.Merges, sb.MergeLastMS, matches)

	if *benchFl != "" {
		if err := mergeBenchKey(*benchFl, "serve", sb); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchFl, err)
			return 1
		}
	}
	if !matches {
		return 1
	}
	return 0
}

// benchPipeline is the analysis configuration the serve benchmark and its
// offline oracle share: the same artifact set the single-host experiments
// compute.
func benchPipeline() analysis.Pipeline {
	return analysis.Pipeline{
		Values:        analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		OriginMinSets: 10,
	}
}

// mergeBenchKey sets one key in a benchmark JSON report (created if
// absent), preserving other keys — the same merge contract timerlint uses
// for "lint".
func mergeBenchKey(path, key string, v any) error {
	report := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	report[key] = v
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
