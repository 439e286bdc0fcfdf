package trace

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"

	"sync/atomic"
	"time"
)

// Header names of the HTTPSink wire protocol, shared with the ingest
// service (internal/serve).
const (
	HeaderStream   = "X-Trace-Stream"
	HeaderSeq      = "X-Trace-Seq"
	HeaderInstance = "X-Trace-Instance"
)

// HTTPSink spills a v2 trace stream to a live trace service (timerstat
// -serve) while the simulation runs. It is a Sink: the producer logs
// records exactly as it would into a StreamWriter; the sink cuts the
// encoded stream into frame-aligned batches and POSTs them from a
// background sender goroutine with retry/backoff, so a slow network stalls
// the producer only when the bounded batch queue fills (backpressure), and
// a dead service eventually poisons the stream and counts every further
// frame as dropped instead of blocking the run.
//
// The wire protocol is the v2 stream format itself, split at frame
// boundaries: batch 0 carries the 8-byte header, the final batch ends with
// the 'C' counters footer written by Close. Each POST carries
// X-Trace-Stream (stream name), X-Trace-Seq (batch sequence number) and
// X-Trace-Instance (producer identity); the server acknowledges already-
// seen sequence numbers idempotently, so retrying a batch whose response
// was lost is safe.
type HTTPSink struct {
	endpoint string
	stream   string
	instance string

	client     *http.Client
	sleep      func(time.Duration)
	maxRetries int
	backoff    time.Duration

	sw      *StreamWriter
	capture *captureBuffer
	pending int // records since the last batch cut
	seq     uint64
	closed  bool

	ch   chan batchMsg
	done chan struct{}

	sentBatches    atomic.Uint64
	sentBytes      atomic.Uint64
	retries        atomic.Uint64
	droppedBatches atomic.Uint64
	droppedFrames  atomic.Uint64
	droppedRecords atomic.Uint64
	failed         atomic.Bool
	lastErr        atomic.Value // string
}

type batchMsg struct {
	seq     uint64
	data    []byte
	records int
}

// captureBuffer is the StreamWriter's underlying writer: it accumulates the
// encoded bytes of the current batch so cut can hand them whole to the
// sender.
type captureBuffer struct{ b []byte }

func (c *captureBuffer) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// HTTPSinkOptions configure a new HTTPSink; the zero value of every field
// selects a sensible default.
type HTTPSinkOptions struct {
	// Client performs the POSTs; nil means a client with DefaultHTTPTimeout.
	Client *http.Client
	// BatchRecords is the number of records per POST batch (also the
	// StreamWriter chunk size, so batches hold whole frames). <1 means
	// DefaultBatchRecords.
	BatchRecords int
	// QueueDepth is how many cut batches may wait for the sender before
	// Log blocks (producer backpressure). <1 means defaultQueueDepth.
	QueueDepth int
	// MaxRetries is how many times a failed POST is retried with
	// exponential backoff before the stream is poisoned. <0 means no
	// retries; 0 means defaultMaxRetries.
	MaxRetries int
	// Backoff is the first retry delay, doubling per attempt up to
	// maxBackoff. <=0 means defaultBackoffBase.
	Backoff time.Duration
	// Sleep is the backoff wait seam; nil means the host clock's sleep.
	// Tests inject a recorder to keep retry paths instant.
	Sleep func(time.Duration)
	// Instance identifies this producer process for retry idempotency;
	// "" derives one from the PID and a process-wide counter.
	Instance string
}

const (
	// DefaultBatchRecords is the per-POST record batch size: 1<<14 records
	// is ~640 KiB of payload, big enough to amortize HTTP overhead, small
	// enough that per-connection server memory stays bounded.
	DefaultBatchRecords = 1 << 14
	defaultQueueDepth   = 8
	defaultMaxRetries   = 4
)

var instanceCounter atomic.Uint64

// NewHTTPSink returns a sink streaming to the trace service at baseURL
// under the given stream name. baseURL may be the service root (the
// standard /api/ingest path is appended) or a full ingest URL. The stream
// opens lazily: no bytes hit the network until the first batch cut.
func NewHTTPSink(baseURL, stream string, opts HTTPSinkOptions) (*HTTPSink, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("trace: http sink url: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("trace: http sink url %q: need scheme and host", baseURL)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/api/ingest"
	}
	if stream == "" {
		return nil, fmt.Errorf("trace: http sink: empty stream name")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	sleep := opts.Sleep
	if sleep == nil {
		//lint:ignore wallclock the HTTP sink talks to a real service; backoff waits on the host clock by design, and tests inject Sleep
		sleep = time.Sleep
	}
	batch := opts.BatchRecords
	if batch < 1 {
		batch = DefaultBatchRecords
	}
	depth := opts.QueueDepth
	if depth < 1 {
		depth = defaultQueueDepth
	}
	retriesMax := opts.MaxRetries
	if retriesMax == 0 {
		retriesMax = defaultMaxRetries
	} else if retriesMax < 0 {
		retriesMax = 0
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = defaultBackoffBase
	}
	instance := opts.Instance
	if instance == "" {
		instance = strconv.Itoa(os.Getpid()) + "-" + strconv.FormatUint(instanceCounter.Add(1), 10)
	}
	capture := &captureBuffer{}
	h := &HTTPSink{
		endpoint:   u.String(),
		stream:     stream,
		instance:   instance,
		client:     client,
		sleep:      sleep,
		maxRetries: retriesMax,
		backoff:    backoff,
		sw:         NewStreamWriterSize(capture, batch),
		capture:    capture,
		ch:         make(chan batchMsg, depth),
		done:       make(chan struct{}),
	}
	go h.sender()
	return h, nil
}

// Origin interns an origin label with the standard first-seen ID
// assignment.
func (h *HTTPSink) Origin(name string) uint32 { return h.sw.Origin(name) }

// Log appends one record, cutting and enqueueing a batch every
// BatchRecords records. Log blocks only when the batch queue is full.
func (h *HTTPSink) Log(r Record) {
	h.sw.Log(r)
	h.pending++
	if h.pending >= h.sw.chunkCap() {
		h.cut()
	}
}

// chunkCap is the StreamWriter's configured chunk size.
func (s *StreamWriter) chunkCap() int { return s.chunkRecords }

// cut flushes the StreamWriter (emitting whole frames into the capture
// buffer) and hands the accumulated bytes to the sender. Frame alignment is
// what makes batches independently decodable on the server.
func (h *HTTPSink) cut() {
	h.sw.Flush()
	if len(h.capture.b) == 0 {
		return
	}
	data := h.capture.b
	h.capture.b = nil
	msg := batchMsg{seq: h.seq, data: data, records: h.pending}
	h.seq++
	h.pending = 0
	if h.failed.Load() {
		h.drop(msg)
		return
	}
	h.ch <- msg
}

// drop accounts a batch that will never reach the service.
func (h *HTTPSink) drop(msg batchMsg) {
	h.droppedBatches.Add(1)
	h.droppedFrames.Add(uint64(countFrames(msg.data, msg.seq == 0)))
	h.droppedRecords.Add(uint64(msg.records))
}

// sender drains the batch queue in order, POSTing each batch with
// exponential-backoff retries. A batch that exhausts its retries (or hits a
// non-retryable status) poisons the stream: every later batch is counted
// dropped, because a gap would desynchronize the server's incremental
// origin table anyway.
func (h *HTTPSink) sender() {
	defer close(h.done)
	for msg := range h.ch {
		if h.failed.Load() {
			h.drop(msg)
			continue
		}
		if err := h.post(msg); err != nil {
			h.lastErr.Store(err.Error())
			h.failed.Store(true)
			h.drop(msg)
			continue
		}
		h.sentBatches.Add(1)
		h.sentBytes.Add(uint64(len(msg.data)))
	}
}

// post sends one batch, retrying transient failures.
func (h *HTTPSink) post(msg batchMsg) error {
	backoff := h.backoff
	var lastErr error
	for attempt := 0; attempt <= h.maxRetries; attempt++ {
		if attempt > 0 {
			h.retries.Add(1)
			h.sleep(backoff)
			if backoff < maxBackoff {
				backoff *= 2
			}
		}
		req, err := http.NewRequest(http.MethodPost, h.endpoint, bytes.NewReader(msg.data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(HeaderStream, h.stream)
		req.Header.Set(HeaderInstance, h.instance)
		req.Header.Set(HeaderSeq, strconv.FormatUint(msg.seq, 10))
		resp, err := h.client.Do(req)
		if err != nil {
			lastErr = err
			continue // network error: retry
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			return nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			lastErr = fmt.Errorf("trace: ingest %s seq %d: %s (%s)", h.stream, msg.seq, resp.Status, bytes.TrimSpace(body))
		default:
			// 4xx: the server will never accept this batch; don't retry.
			return fmt.Errorf("trace: ingest %s seq %d rejected: %s (%s)", h.stream, msg.seq, resp.Status, bytes.TrimSpace(body))
		}
	}
	return fmt.Errorf("trace: ingest %s gave up after %d retries: %w", h.stream, h.maxRetries, lastErr)
}

// Close finishes the stream: writes the counters footer, sends the final
// batch, waits for the sender to drain, and returns the terminal error if
// the stream was poisoned. Safe to call once.
func (h *HTTPSink) Close() error {
	if h.closed {
		return h.err()
	}
	h.closed = true
	h.sw.Close()
	h.cut()
	close(h.ch)
	<-h.done
	return h.err()
}

func (h *HTTPSink) err() error {
	if s, ok := h.lastErr.Load().(string); ok && s != "" {
		return fmt.Errorf("%s", s)
	}
	return nil
}

// Counters returns the operation tallies logged so far (sent or not).
func (h *HTTPSink) Counters() Counters { return h.sw.Counters() }

// HTTPSinkStats is a point-in-time snapshot of the sink's delivery
// accounting.
type HTTPSinkStats struct {
	SentBatches    uint64
	SentBytes      uint64
	Retries        uint64
	DroppedBatches uint64
	DroppedFrames  uint64
	DroppedRecords uint64
	Failed         bool
	LastErr        string
}

// Stats snapshots delivery accounting; safe to call from any goroutine.
func (h *HTTPSink) Stats() HTTPSinkStats {
	s := HTTPSinkStats{
		SentBatches:    h.sentBatches.Load(),
		SentBytes:      h.sentBytes.Load(),
		Retries:        h.retries.Load(),
		DroppedBatches: h.droppedBatches.Load(),
		DroppedFrames:  h.droppedFrames.Load(),
		DroppedRecords: h.droppedRecords.Load(),
		Failed:         h.failed.Load(),
	}
	if e, ok := h.lastErr.Load().(string); ok {
		s.LastErr = e
	}
	return s
}

var (
	_ Sink      = (*HTTPSink)(nil)
	_ Sink      = (*teeSink)(nil)
	_ io.Writer = (*captureBuffer)(nil)
)
