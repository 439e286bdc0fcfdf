package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// fakeClock is the test stand-in for Options.Clock: time advances only when
// a test says so, so cadence and rate-bucket behavior are fully scripted.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testPipeline mirrors the full-artifact configuration cmd/experiments
// analyzes under, so determinism is pinned across every report section.
func testPipeline() analysis.Pipeline {
	vFilt := analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2, CollapseCountdowns: true}
	vUser := analysis.ValueOptions{UserOnly: true, MinSharePercent: 2}
	return analysis.Pipeline{
		Values:         analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		ValuesFiltered: &vFilt,
		ValuesUser:     &vUser,
		OriginMinSets:  5,
	}
}

// producerTrace builds one producer's in-memory trace: ntimers interleaved
// timer lifecycles over a few shared origins, with the timer identities
// namespaced by producer so streams stay disjoint the way distinct hosts'
// streams are.
func producerTrace(producer, ntimers int) *trace.Buffer {
	b := trace.NewBuffer(ntimers * 2)
	origins := []string{"kernel/tcp", "firefox/poll", "svc/wait"}
	t0 := sim.Time(0)
	for i := 0; i < ntimers; i++ {
		id := uint64(producer+1)<<48 | uint64(i%97)
		origin := b.Origin(origins[(producer+i)%len(origins)])
		var flags trace.Flags
		if i%3 != 0 {
			flags = trace.FlagUser
		}
		timeout := sim.Duration(1+(producer+i)%4) * 50 * sim.Millisecond
		b.Log(trace.Record{T: t0, Op: trace.OpSet, TimerID: id, Timeout: int64(timeout),
			Origin: origin, PID: int32(producer), Flags: flags})
		endOp := trace.OpExpire
		if i%4 == 0 {
			endOp = trace.OpCancel
		}
		b.Log(trace.Record{T: t0 + sim.Time(timeout), Op: endOp, TimerID: id,
			Origin: origin, PID: int32(producer), Flags: flags})
		t0 += sim.Time(7 * sim.Millisecond)
	}
	return b
}

// replay pushes a Buffer through an HTTPSink to the service, re-interning
// origins, and fails the test on any sink-side drop or error.
func replay(t *testing.T, url, name string, b *trace.Buffer, batch int) {
	t.Helper()
	sink, err := trace.NewHTTPSink(url, name, trace.HTTPSinkOptions{
		BatchRecords: batch,
		Instance:     "test-" + name,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Records() {
		r.Origin = sink.Origin(b.OriginName(r.Origin))
		sink.Log(r)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("sink %s: %v", name, err)
	}
	if st := sink.Stats(); st.DroppedBatches != 0 || st.Failed {
		t.Fatalf("sink %s dropped batches: %+v", name, st)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// TestServeQuiesceDeterminism is the tentpole determinism pin: several
// producers stream concurrently in scrambled name order; once all streams
// have closed, the server's summary/origins/histograms must be
// byte-identical to the offline pipeline over the streams concatenated in
// lexicographic name order — the same bytes `timerstat` would print.
func TestServeQuiesceDeterminism(t *testing.T) {
	p := testPipeline()
	clk := newFakeClock()
	srv := New(Options{Pipeline: p, Clock: clk.now, Version: "test"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Deliberately not lexicographic: arrival order must not matter.
	names := []string{"host-02", "host-00", "host-03", "host-01"}
	bufs := map[string]*trace.Buffer{}
	for i, name := range names {
		bufs[name] = producerTrace(i, 3_000)
	}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			replay(t, ts.URL, name, bufs[name], 512)
		}(name)
	}
	wg.Wait()

	// Oracle: one offline Run over the concatenation in name order.
	total := 0
	for _, b := range bufs {
		total += len(b.Records())
	}
	oracle := trace.NewBuffer(total)
	for _, name := range []string{"host-00", "host-01", "host-02", "host-03"} {
		b := bufs[name]
		for _, r := range b.Records() {
			r.Origin = oracle.Origin(b.OriginName(r.Origin))
			oracle.Log(r)
		}
	}
	rep, err := p.Run(oracle)
	if err != nil {
		t.Fatal(err)
	}

	checks := []struct {
		path string
		want []byte
	}{
		{"/api/summary", rep.SummaryJSON()},
		{"/api/origins", rep.OriginsJSON()},
		{"/api/histograms", rep.HistogramsJSON()},
	}
	for _, c := range checks {
		got := httpGet(t, ts.URL+c.path)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: server bytes != offline bytes\nserver: %.200s\noffline: %.200s",
				c.path, got, c.want)
		}
	}

	// Quiesced: a second read must not remerge (cache hit on same gen).
	merges := srv.Metrics.Merges.Load()
	httpGet(t, ts.URL+"/api/summary")
	if got := srv.Metrics.Merges.Load(); got != merges {
		t.Errorf("quiesced re-read remerged: %d -> %d", merges, got)
	}

	// heap_live_bytes is what the last GC marked: zero until one has run.
	runtime.GC()
	var met MetricsSnapshot
	if err := json.Unmarshal(httpGet(t, ts.URL+"/api/metrics"), &met); err != nil {
		t.Fatal(err)
	}
	if met.StreamsClosed != uint64(len(names)) || met.StreamsOpen != 0 {
		t.Errorf("metrics streams: open=%d closed=%d want 0/%d",
			met.StreamsOpen, met.StreamsClosed, len(names))
	}
	if met.Version != "test" {
		t.Errorf("metrics version = %q", met.Version)
	}
	if met.IngestRecords != uint64(total) {
		t.Errorf("ingest_records = %d want %d", met.IngestRecords, total)
	}
	if met.TimerIDCollisions != 0 {
		t.Errorf("namespaced producers: timer_id_collisions = %d want 0", met.TimerIDCollisions)
	}
	if met.HeapLiveBytes == 0 || met.HeapLiveBytes > met.HeapSysBytes {
		t.Errorf("heap_live_bytes = %d, want positive and at most heap_sys_bytes (%d)", met.HeapLiveBytes, met.HeapSysBytes)
	}
}

// TestServeEmptyHistogramsRender: a configured histogram with no entries
// renders as {"total":0,"entries":[]}, never as the null an unconfigured
// one gets — on a fresh server with no stream, and for the user-space
// histogram over a stream of kernel records only, where the server's bytes
// must still equal the offline pipeline's.
func TestServeEmptyHistogramsRender(t *testing.T) {
	p := testPipeline()
	srv := New(Options{Pipeline: p, Clock: newFakeClock().now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const empty = `{"total":0,"entries":[]}`
	sections := func(body []byte) map[string]string {
		t.Helper()
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for k, v := range raw {
			var c bytes.Buffer
			if err := json.Compact(&c, v); err != nil {
				t.Fatal(err)
			}
			out[k] = c.String()
		}
		return out
	}

	fresh := sections(httpGet(t, ts.URL+"/api/histograms"))
	for _, k := range []string{"values", "values_filtered", "values_user"} {
		if fresh[k] != empty {
			t.Errorf("fresh server: %s = %s, want %s", k, fresh[k], empty)
		}
	}

	src := producerTrace(0, 300)
	kernel := trace.NewBuffer(len(src.Records()))
	for _, r := range src.Records() {
		r.Origin = kernel.Origin(src.OriginName(r.Origin))
		r.Flags &^= trace.FlagUser
		kernel.Log(r)
	}
	replay(t, ts.URL, "kernel-only", kernel, 64)
	got := httpGet(t, ts.URL+"/api/histograms")
	if v := sections(got)["values_user"]; v != empty {
		t.Errorf("kernel-only stream: values_user = %s, want %s", v, empty)
	}
	rep, err := p.Run(kernel)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.HistogramsJSON(); !bytes.Equal(got, want) {
		t.Errorf("kernel-only stream: server bytes != offline bytes\nserver: %s\noffline: %s", got, want)
	}
}

// TestServeTimerIDCollisions: two producers whose streams reuse the same
// timer IDs break the merge contract: /api/metrics counts each shared ID
// once in timer_id_collisions, every section answer carries the count in
// its X-Timer-ID-Collisions header, and /api/summary differs from the
// offline answer over the concatenated streams, so the header marks a real
// divergence. Producers with namespaced IDs get neither, and all three
// sections equal the offline answer byte for byte.
func TestServeTimerIDCollisions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		strip bool
		want  uint64
	}{
		{"shared", true, 97},
		{"namespaced", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testPipeline()
			srv := New(Options{Pipeline: p, Clock: newFakeClock().now, Version: "test"})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			// Oracle: one offline Run over the streams concatenated in
			// name order, which the producers' names already are.
			oracle := trace.NewBuffer(2 * 1000)
			for producer, name := range []string{"host-a", "host-b"} {
				b := producerTrace(producer, 500)
				if tc.strip {
					// Strip producerTrace's namespace: both streams use
					// IDs 0..96.
					shared := trace.NewBuffer(len(b.Records()))
					for _, r := range b.Records() {
						r.TimerID &= 1<<48 - 1
						r.Origin = shared.Origin(b.OriginName(r.Origin))
						shared.Log(r)
					}
					b = shared
				}
				replay(t, ts.URL, name, b, 128)
				for _, r := range b.Records() {
					r.Origin = oracle.Origin(b.OriginName(r.Origin))
					oracle.Log(r)
				}
			}
			rep, err := p.Run(oracle)
			if err != nil {
				t.Fatal(err)
			}
			wantHeader := ""
			if tc.want > 0 {
				wantHeader = strconv.FormatUint(tc.want, 10)
			}
			for _, c := range []struct {
				section string
				offline []byte
			}{
				{"/api/summary", rep.SummaryJSON()},
				{"/api/origins", rep.OriginsJSON()},
				{"/api/histograms", rep.HistogramsJSON()},
			} {
				section := c.section
				resp, err := http.Get(ts.URL + section)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				same := bytes.Equal(body, c.offline)
				if tc.want == 0 && !same {
					t.Errorf("%s: namespaced streams: server bytes != offline bytes\nserver: %.200s\noffline: %.200s", section, body, c.offline)
				}
				if tc.want > 0 && section == "/api/summary" && same {
					t.Errorf("%s: shared IDs: server bytes equal the offline answer, so the header marks no divergence", section)
				}
				got, ok := resp.Header[http.CanonicalHeaderKey(HeaderTimerIDCollisions)]
				if tc.want == 0 && ok {
					t.Errorf("%s: %s header %q on namespaced streams, want none", section, HeaderTimerIDCollisions, got)
				}
				if tc.want > 0 && resp.Header.Get(HeaderTimerIDCollisions) != wantHeader {
					t.Errorf("%s: %s = %q, want %q", section, HeaderTimerIDCollisions, got, wantHeader)
				}
			}
			var met MetricsSnapshot
			if err := json.Unmarshal(httpGet(t, ts.URL+"/api/metrics"), &met); err != nil {
				t.Fatal(err)
			}
			if met.TimerIDCollisions != tc.want {
				t.Fatalf("timer_id_collisions = %d, want %d", met.TimerIDCollisions, tc.want)
			}
		})
	}
}

// encodeStream renders a Buffer as one complete v2 stream (header..footer).
func encodeStream(t *testing.T, b *trace.Buffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := trace.NewStreamWriterSize(&buf, 256)
	for _, r := range b.Records() {
		r.Origin = sw.Origin(b.OriginName(r.Origin))
		sw.Log(r)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post sends one raw ingest batch with protocol headers and returns the
// status code and body.
func post(t *testing.T, url, stream, instance string, seq uint64, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.HeaderStream, stream)
	req.Header.Set(trace.HeaderInstance, instance)
	req.Header.Set(trace.HeaderSeq, strconv.FormatUint(seq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestServeIngestProtocol pins the sequence-number contract: duplicate
// batches are acknowledged without re-applying, gaps and instance conflicts
// are 409s, unknown streams at non-zero seq are unrecoverable, and a decode
// error poisons the stream.
func TestServeIngestProtocol(t *testing.T) {
	clk := newFakeClock()
	srv := New(Options{Pipeline: testPipeline(), Clock: clk.now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stream := encodeStream(t, producerTrace(0, 500))

	if code, msg := post(t, ts.URL, "", "i1", 0, stream); code != 400 {
		t.Fatalf("missing stream header: %d %s", code, msg)
	}
	if code, msg := post(t, ts.URL, "ghost", "i1", 3, stream); code != 409 {
		t.Fatalf("unknown stream at seq 3: %d %s", code, msg)
	}
	if code, msg := post(t, ts.URL, "s", "i1", 0, stream); code != 204 {
		t.Fatalf("first batch: %d %s", code, msg)
	}
	want := httpGet(t, ts.URL+"/api/summary")

	// Duplicate of an applied batch: acknowledged, state untouched.
	if code, msg := post(t, ts.URL, "s", "i1", 0, stream); code != 200 {
		t.Fatalf("dup batch: %d %s", code, msg)
	}
	if got := srv.Metrics.DupPosts.Load(); got != 1 {
		t.Errorf("dup posts = %d", got)
	}
	if got := httpGet(t, ts.URL+"/api/summary"); !bytes.Equal(got, want) {
		t.Error("duplicate batch changed the merged report")
	}

	if code, msg := post(t, ts.URL, "s", "i1", 5, stream); code != 409 {
		t.Fatalf("sequence gap: %d %s", code, msg)
	}
	if code, msg := post(t, ts.URL, "s", "i2", 1, stream); code != 409 {
		t.Fatalf("instance conflict: %d %s", code, msg)
	}

	// Garbage first batch poisons its stream; the next batch is refused
	// even at the right sequence number.
	if code, msg := post(t, ts.URL, "bad", "i1", 0, []byte("not a trace stream")); code != 400 {
		t.Fatalf("garbage batch: %d %s", code, msg)
	}
	if code, msg := post(t, ts.URL, "bad", "i1", 0, stream); code != 400 || !contains(msg, "poisoned") {
		t.Fatalf("poisoned stream accepted a batch: %d %s", code, msg)
	}

	// Oversized body is refused before decoding.
	big := New(Options{Pipeline: testPipeline(), Clock: clk.now, MaxBodyBytes: 64})
	tsBig := httptest.NewServer(big.Handler())
	defer tsBig.Close()
	if code, msg := post(t, tsBig.URL, "s", "i1", 0, stream); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", code, msg)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestServeMergeCadence pins merge-on-query rate limiting: while a stream
// is live, repeated queries within the cadence serve the cached view;
// advancing the clock past the cadence remerges; closing every stream
// remerges immediately regardless of cadence.
func TestServeMergeCadence(t *testing.T) {
	clk := newFakeClock()
	srv := New(Options{Pipeline: testPipeline(), Clock: clk.now, MergeEvery: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A stream that never closes: header+records but no footer yet. Use two
	// sinks' worth by splitting a full stream before its footer... simpler:
	// send a full stream under one name (closed) and keep another open by
	// sending only the first batch of a two-batch stream.
	full := encodeStream(t, producerTrace(0, 300))
	if code, msg := post(t, ts.URL, "closed", "i1", 0, full); code != 204 {
		t.Fatalf("closed stream: %d %s", code, msg)
	}
	// Open stream: header only (no frames at all) keeps it live.
	if code, msg := post(t, ts.URL, "open", "i1", 0, full[:8]); code != 204 {
		t.Fatalf("open stream header: %d %s", code, msg)
	}

	httpGet(t, ts.URL+"/api/summary")
	m1 := srv.Metrics.Merges.Load()
	if m1 == 0 {
		t.Fatal("first query did not merge")
	}

	// New ingest makes the cache stale, but within the cadence a live
	// server keeps serving it.
	if code, msg := post(t, ts.URL, "closed2", "i1", 0, full); code != 204 {
		t.Fatalf("second stream: %d %s", code, msg)
	}
	clk.advance(time.Second)
	httpGet(t, ts.URL+"/api/summary")
	if got := srv.Metrics.Merges.Load(); got != m1 {
		t.Errorf("merged within cadence: %d -> %d", m1, got)
	}

	clk.advance(time.Minute)
	httpGet(t, ts.URL+"/api/summary")
	m2 := srv.Metrics.Merges.Load()
	if m2 != m1+1 {
		t.Errorf("cadence elapsed but merges %d -> %d", m1, m2)
	}

	// Close the open stream: remainder of the stream, then expect the next
	// query to remerge immediately even though the cadence has not elapsed.
	if code, msg := post(t, ts.URL, "open", "i1", 1, full[8:]); code != 204 {
		t.Fatalf("closing open stream: %d %s", code, msg)
	}
	clk.advance(time.Millisecond)
	httpGet(t, ts.URL+"/api/summary")
	if got := srv.Metrics.Merges.Load(); got != m2+1 {
		t.Errorf("quiesce did not merge immediately: %d -> %d", m2, got)
	}
}

// TestServeRatesAndStreams pins the rate ring and the stream listing under
// a scripted clock.
func TestServeRatesAndStreams(t *testing.T) {
	clk := newFakeClock()
	srv := New(Options{Pipeline: testPipeline(), Clock: clk.now, RateWindowSecs: 30})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b := producerTrace(0, 100)
	full := encodeStream(t, b)
	if code, msg := post(t, ts.URL, "a", "i1", 0, full); code != 204 {
		t.Fatalf("stream a: %d %s", code, msg)
	}
	clk.advance(3 * time.Second)
	if code, msg := post(t, ts.URL, "b", "i2", 0, full); code != 204 {
		t.Fatalf("stream b: %d %s", code, msg)
	}

	var rates ratesResponse
	if err := json.Unmarshal(httpGet(t, ts.URL+"/api/rates?window=5"), &rates); err != nil {
		t.Fatal(err)
	}
	if rates.WindowS != 5 || len(rates.Buckets) != 5 {
		t.Fatalf("window: %+v", rates)
	}
	nrec := uint64(len(b.Records()))
	last, first := rates.Buckets[4], rates.Buckets[1]
	if last.Records != nrec || first.Records != nrec {
		t.Errorf("rate buckets: first=%+v last=%+v want %d records each", first, last, nrec)
	}
	if rates.Buckets[2].Records != 0 || rates.Buckets[3].Records != 0 {
		t.Errorf("idle seconds not zero-filled: %+v", rates.Buckets)
	}
	if last.Set == 0 || last.Expired == 0 || last.Cancel == 0 {
		t.Errorf("op tallies empty: %+v", last)
	}

	var streams struct {
		Streams []streamJSON `json:"streams"`
	}
	if err := json.Unmarshal(httpGet(t, ts.URL+"/api/streams"), &streams); err != nil {
		t.Fatal(err)
	}
	if len(streams.Streams) != 2 || streams.Streams[0].Name != "a" || streams.Streams[1].Name != "b" {
		t.Fatalf("stream listing: %+v", streams)
	}
	a := streams.Streams[0]
	if !a.Closed || a.Records != nrec || a.Instance != "i1" || a.NextSeq != 1 {
		t.Errorf("stream a row: %+v", a)
	}
	if a.AgeS != 3 {
		t.Errorf("stream a age = %v want 3", a.AgeS)
	}
}

// TestServeDashboardServed pins that the embedded dashboard answers on /.
func TestServeDashboardServed(t *testing.T) {
	srv := New(Options{Pipeline: testPipeline(), Clock: newFakeClock().now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := httpGet(t, ts.URL+"/")
	if !bytes.Contains(body, []byte("timerstudy live trace")) {
		t.Fatalf("dashboard body: %.120s", body)
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
}

// TestServeMaxStreams pins the stream-count limit.
func TestServeMaxStreams(t *testing.T) {
	clk := newFakeClock()
	srv := New(Options{Pipeline: testPipeline(), Clock: clk.now, MaxStreams: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	full := encodeStream(t, producerTrace(0, 50))
	for i := 0; i < 2; i++ {
		if code, msg := post(t, ts.URL, fmt.Sprintf("s%d", i), "i", 0, full); code != 204 {
			t.Fatalf("stream %d: %d %s", i, code, msg)
		}
	}
	if code, _ := post(t, ts.URL, "s2", "i", 0, full); code != 503 {
		t.Fatalf("over limit: %d", code)
	}
}
