// Package serve is the live timer-trace service: an HTTP endpoint that
// ingests v2 trace streams from many concurrent producers (trace.HTTPSink),
// folds each stream into its own incremental analysis.Partial as batches
// arrive, and answers queries from a merged global view.
//
// Design rules, in order:
//
//   - Determinism. The merged report depends only on stream contents and
//     names, never on arrival order: partials are merged in lexicographic
//     stream-name order (an analysis.Merger is order-sensitive only for
//     the cross-stream concurrency bound, and name order pins it). A
//     quiesced server — every stream has delivered its counters footer —
//     answers /api/summary, /api/origins and /api/histograms with bytes
//     identical to offline timerstat over the concatenated streams.
//   - Bounded memory. Per stream: one decoder chunk + origin table + one
//     reusable body buffer (≤ MaxBodyBytes) + the analysis Partial, whose
//     accumulators hold only the delta since the last merge. Globally:
//     MaxStreams streams, IngestConcurrency bodies in flight, the Merger's
//     one persistent base shard plus its per-view overlay, its timer-ID
//     map (one entry per timer ID ingested, O(total timers) like each
//     Partial's own ID index), and one cached merged view. Nothing grows
//     with total records ingested.
//   - No background goroutines. Merges happen on the query path, rate-
//     limited by MergeEvery while producers are live and immediate once the
//     server quiesces, so an idle server does nothing and tests control
//     time fully through the Clock seam.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/trace"
)

// Options configures a Server; the zero value is usable.
type Options struct {
	// Pipeline configures the per-stream analysis shards; zero value is the
	// standard pipeline. No endpoint serves a Scatter or a SeriesProcess,
	// and a series keeps every arming of its process, against the
	// bounded-memory rule, so timerstat -serve refuses both.
	Pipeline analysis.Pipeline
	// Clock supplies the service's wall clock (rate buckets, merge cadence,
	// uptime). Nil means the host clock; tests inject a fake.
	Clock func() time.Time
	// MergeEvery rate-limits query-triggered merges while streams are live.
	// 0 means defaultMergeCadence; negative means merge on every query.
	MergeEvery time.Duration
	// MaxBodyBytes caps one ingest POST body; 0 means defaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxStreams caps distinct producer streams; 0 means defaultMaxStreams.
	MaxStreams int
	// IngestConcurrency caps POST bodies being read/decoded at once;
	// 0 means defaultIngestConcurrency.
	IngestConcurrency int
	// RateWindowSecs sizes the per-second ingest-rate ring; 0 means
	// defaultRateWindowSecs.
	RateWindowSecs int
	// Version is reported by /api/metrics (version.String() in cmds).
	Version string
}

// Server implements the ingest and query endpoints. Create with New, mount
// via Handler.
type Server struct {
	pipe       analysis.Pipeline
	clock      func() time.Time
	cadence    time.Duration
	maxBody    int64
	maxStreams int
	version    string
	start      time.Time

	mux *http.ServeMux
	sem chan struct{} // ingest concurrency limiter

	mu      sync.Mutex // guards streams map (per-stream state has its own lock)
	streams map[string]*stream

	// gen counts accepted state changes; a cached merge is identified by the
	// gen it covered, so gen != merged.gen means the view is stale.
	gen     atomic.Uint64
	mergeMu sync.Mutex       // serializes merges; queries read the cached pointer
	merger  *analysis.Merger // used only under mergeMu
	merged  atomic.Pointer[mergedState]

	rates *rateRing
	hub   hub // steering relay between dashboard and simulation driver

	// Metrics is exported for the loopback benchmark; handlers bump it
	// directly.
	Metrics Metrics
}

// mergedState is one immutable merged view: the pre-rendered JSON sections
// plus the generation it covered.
type mergedState struct {
	gen     uint64
	at      time.Time
	records uint64
	// collisions is the view's Report.TimerIDCollisions.
	collisions int

	summary    []byte
	origins    []byte
	histograms []byte
}

// hostClock is the service's one real-clock read; everything else goes
// through the injected Clock seam.
//
//lint:ignore wallclock live service needs the host clock by definition
func hostClock() time.Time { return time.Now() }

// New builds a Server from opts, applying the documented defaults.
func New(opts Options) *Server {
	s := &Server{
		pipe:       opts.Pipeline,
		clock:      opts.Clock,
		cadence:    opts.MergeEvery,
		maxBody:    opts.MaxBodyBytes,
		maxStreams: opts.MaxStreams,
		version:    opts.Version,
		streams:    make(map[string]*stream),
	}
	s.merger = s.pipe.NewMerger()
	if s.clock == nil {
		s.clock = hostClock
	}
	if s.cadence == 0 {
		s.cadence = defaultMergeCadence
	}
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBodyBytes
	}
	if s.maxStreams <= 0 {
		s.maxStreams = defaultMaxStreams
	}
	conc := opts.IngestConcurrency
	if conc <= 0 {
		conc = defaultIngestConcurrency
	}
	s.sem = make(chan struct{}, conc)
	window := opts.RateWindowSecs
	if window <= 0 {
		window = defaultRateWindowSecs
	}
	s.rates = newRateRing(window)
	s.start = s.clock()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/api/ingest", s.handleIngest)
	s.mux.HandleFunc("/api/summary", s.section(func(m *mergedState) []byte { return m.summary }))
	s.mux.HandleFunc("/api/origins", s.section(func(m *mergedState) []byte { return m.origins }))
	s.mux.HandleFunc("/api/histograms", s.section(func(m *mergedState) []byte { return m.histograms }))
	s.mux.HandleFunc("/api/rates", s.handleRates)
	s.mux.HandleFunc("/api/command", s.handleCommand)
	s.mux.HandleFunc("/api/command/drain", s.handleCommandDrain)
	s.mux.HandleFunc("/api/command/report", s.handleCommandReport)
	s.mux.HandleFunc("/api/command/log", s.handleCommandLog)
	s.mux.HandleFunc("/api/streams", s.handleStreams)
	s.mux.HandleFunc("/api/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", s.handleDashboard)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// reject refuses a POST and counts it.
func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	s.Metrics.Rejected.Add(1)
	http.Error(w, msg, code)
}

// handleIngest accepts one frame-aligned batch of a producer's stream.
// Batches carry (stream, seq, instance) headers; a duplicate seq is
// acknowledged without re-applying (the producer is retrying a batch whose
// response was lost), a gap is a permanent 409, and a decode error poisons
// the stream so later batches cannot silently build on corrupt state.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	name := r.Header.Get(trace.HeaderStream)
	if name == "" {
		s.reject(w, http.StatusBadRequest, "missing "+trace.HeaderStream)
		return
	}
	seq, err := strconv.ParseUint(r.Header.Get(trace.HeaderSeq), 10, 64)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad "+trace.HeaderSeq)
		return
	}
	instance := r.Header.Get(trace.HeaderInstance)

	st, code, msg := s.getStream(name, instance, seq)
	if st == nil {
		s.reject(w, code, msg)
		return
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.instance != instance {
		s.reject(w, http.StatusConflict,
			fmt.Sprintf("stream %q owned by instance %q", name, st.instance))
		return
	}
	if st.errMsg != "" {
		s.reject(w, http.StatusBadRequest, "stream poisoned: "+st.errMsg)
		return
	}
	switch {
	case seq < st.nextSeq:
		// Retry of an already-applied batch: acknowledge idempotently.
		s.Metrics.DupPosts.Add(1)
		w.WriteHeader(http.StatusOK)
		return
	case seq > st.nextSeq:
		s.reject(w, http.StatusConflict,
			fmt.Sprintf("sequence gap: got %d want %d", seq, st.nextSeq))
		return
	}

	body, err := readBody(st.body[:0], r.Body, s.maxBody)
	st.body = body[:0]
	if err != nil {
		code := http.StatusBadRequest
		if err == errBodyTooLarge {
			code = http.StatusRequestEntityTooLarge
		}
		s.reject(w, code, err.Error())
		return
	}

	now := s.clock()
	framesBefore := st.dec.Frames()
	var records uint64
	err = st.dec.Feed(body, func(c trace.Chunk) error {
		st.pa.AddChunk(c)
		records += uint64(len(c.Records))
		s.rates.add(now.Unix(), 0, c.Records)
		return nil
	})
	s.rates.add(now.Unix(), uint64(len(body)), nil)
	if err != nil {
		// Chunks decoded before the error are already folded in; poison the
		// stream so nothing more lands on the partial state.
		st.errMsg = err.Error()
		s.gen.Add(1)
		s.reject(w, http.StatusBadRequest, err.Error())
		return
	}

	st.nextSeq = seq + 1
	st.bytes.Add(uint64(len(body)))
	st.records.Add(records)
	st.frames.Add(uint64(st.dec.Frames() - framesBefore))
	st.lastUnix.Store(now.Unix())
	if st.dec.Done() && !st.closed.Swap(true) {
		s.Metrics.StreamsClosed.Add(1)
	}
	s.Metrics.Posts.Add(1)
	s.Metrics.IngestBytes.Add(uint64(len(body)))
	s.Metrics.IngestRecords.Add(records)
	s.Metrics.IngestFrames.Add(uint64(st.dec.Frames() - framesBefore))
	s.gen.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

var errBodyTooLarge = fmt.Errorf("serve: request body exceeds limit")

// readBody reads all of rc into buf (reusing its capacity), failing once the
// size limit is crossed rather than buffering an unbounded body.
func readBody(buf []byte, rc io.Reader, max int64) ([]byte, error) {
	lr := io.LimitReader(rc, max+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if int64(len(buf)) > max {
				return buf, errBodyTooLarge
			}
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// view returns the merged state the query endpoints serve, remerging when
// the cache is stale AND either the server has quiesced (merge immediately:
// the final answer must be exact) or the cadence has elapsed (live view may
// lag by at most MergeEvery).
func (s *Server) view() *mergedState {
	cur := s.merged.Load()
	if cur != nil && cur.gen == s.gen.Load() {
		return cur
	}
	if cur != nil && s.cadence > 0 && s.clock().Sub(cur.at) < s.cadence && !s.allClosed() {
		return cur
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	// Re-check under the lock: a concurrent query may have merged already.
	gen := s.gen.Load()
	if cur := s.merged.Load(); cur != nil && cur.gen == gen {
		return cur
	}
	start := s.clock()
	parts, records := s.orderedPartials()
	rep := s.merger.Merge(parts)
	end := s.clock()
	m := &mergedState{
		gen:        gen,
		at:         end,
		records:    records,
		collisions: rep.TimerIDCollisions,
		summary:    rep.SummaryJSON(),
		origins:    rep.OriginsJSON(),
		histograms: rep.HistogramsJSON(),
	}
	s.merged.Store(m)
	s.Metrics.Merges.Add(1)
	s.Metrics.MergeNSLast.Store(uint64(end.Sub(start).Nanoseconds()))
	s.Metrics.MergeNSTotal.Add(uint64(end.Sub(start).Nanoseconds()))
	s.Metrics.MergedRecords.Store(records)
	s.Metrics.TimerIDCollisions.Store(uint64(rep.TimerIDCollisions))
	return m
}

// FinalMerge forces one last merge and reports what the service absorbed —
// the graceful-shutdown log line. After the listener closes no more
// batches can arrive, so the returned view is the run's exact final state.
func (s *Server) FinalMerge() (records uint64, streams int) {
	m := s.view()
	s.mu.Lock()
	streams = len(s.streams)
	s.mu.Unlock()
	return m.records, streams
}

func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// HeaderTimerIDCollisions flags a section answer whose view folded timer
// IDs shared by more than one stream, which breaks the offline-equivalence
// contract; its value is the number of shared IDs. Answers without it
// come from streams with disjoint IDs.
const HeaderTimerIDCollisions = "X-Timer-ID-Collisions"

// section serves one pre-rendered JSON section of the merged view.
func (s *Server) section(sel func(*mergedState) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		m := s.view()
		if m.collisions > 0 {
			w.Header().Set(HeaderTimerIDCollisions, strconv.Itoa(m.collisions))
		}
		writeJSON(w, sel(m))
	}
}

// ratesResponse is the JSON shape of /api/rates.
type ratesResponse struct {
	NowUnix int64        `json:"now_unix"`
	WindowS int          `json:"window_s"`
	Buckets []rateBucket `json:"buckets"`
}

func (s *Server) handleRates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	window := 60
	if v := r.URL.Query().Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "bad window", http.StatusBadRequest)
			return
		}
		window = n
	}
	now := s.clock().Unix()
	buckets := s.rates.window(now, window)
	body, err := json.MarshalIndent(ratesResponse{
		NowUnix: now, WindowS: len(buckets), Buckets: buckets,
	}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, append(body, '\n'))
}

// streamJSON is one row of /api/streams.
type streamJSON struct {
	Name     string  `json:"name"`
	Instance string  `json:"instance"`
	NextSeq  uint64  `json:"next_seq"`
	Bytes    uint64  `json:"bytes"`
	Records  uint64  `json:"records"`
	Frames   uint64  `json:"frames"`
	Closed   bool    `json:"closed"`
	AgeS     float64 `json:"age_s"` // seconds since last accepted batch
	Error    string  `json:"error,omitempty"`
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	now := s.clock().Unix()
	s.mu.Lock()
	sts := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		sts = append(sts, st)
	}
	s.mu.Unlock()
	sort.Slice(sts, func(i, j int) bool { return sts[i].name < sts[j].name })
	rows := make([]streamJSON, 0, len(sts))
	for _, st := range sts {
		st.mu.Lock()
		row := streamJSON{
			Name:     st.name,
			Instance: st.instance,
			NextSeq:  st.nextSeq,
			Bytes:    st.bytes.Load(),
			Records:  st.records.Load(),
			Frames:   st.frames.Load(),
			Closed:   st.closed.Load(),
			Error:    st.errMsg,
		}
		st.mu.Unlock()
		if last := st.lastUnix.Load(); last > 0 && now > last {
			row.AgeS = float64(now - last)
		}
		rows = append(rows, row)
	}
	body, err := json.MarshalIndent(struct {
		Streams []streamJSON `json:"streams"`
	}{rows}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, append(body, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	snap := s.Metrics.Snapshot(s.version, s.clock().Sub(s.start))
	body, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, append(body, '\n'))
}
