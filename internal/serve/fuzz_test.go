package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"timerstudy/internal/trace"
)

// ingestBatches encodes b as one v2 stream cut into frame-aligned batches:
// each cuts byte logs (c%64)+1 more records and flushes a batch, and the
// rest of the records plus the footer form the last batch. A cut after the
// records run out is an empty batch, which is valid.
func ingestBatches(tb testing.TB, b *trace.Buffer, cuts []byte) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	sw := trace.NewStreamWriterSize(&buf, 16)
	var batches [][]byte
	recs := b.Records()
	i := 0
	logN := func(n int) {
		for ; n > 0 && i < len(recs); n-- {
			r := recs[i]
			r.Origin = sw.Origin(b.OriginName(r.Origin))
			sw.Log(r)
			i++
		}
	}
	for _, c := range cuts {
		logN(int(c%64) + 1)
		if err := sw.Flush(); err != nil {
			tb.Fatal(err)
		}
		batches = append(batches, bytes.Clone(buf.Bytes()))
		buf.Reset()
	}
	logN(len(recs))
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return append(batches, bytes.Clone(buf.Bytes()))
}

// FuzzIngest drives the ingest handler with a fuzz-chosen schedule: the
// stream is cut into frame-aligned batches at fuzz-chosen record counts,
// posted under duplicate, skipped and reordered sequence numbers, and then
// completed in order. Every request must get the status the sequence
// contract promises — 204 applied, 200 duplicate, 409 gap; never a 5xx or
// a panic — and the quiesced summary, origins and histograms must be
// byte-identical to Pipeline.Run over the same records.
func FuzzIngest(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{7, 0, 63, 20}, []byte{0, 0, 2, 1, 1, 4, 3})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 200, 255}, []byte{5, 4, 3, 2, 1, 0, 7})

	p := testPipeline()
	b := producerTrace(0, 150)
	rep, err := p.Run(b)
	if err != nil {
		f.Fatal(err)
	}
	want := []struct {
		path string
		body []byte
	}{
		{"/api/summary", rep.SummaryJSON()},
		{"/api/origins", rep.OriginsJSON()},
		{"/api/histograms", rep.HistogramsJSON()},
	}

	f.Fuzz(func(t *testing.T, cuts, order []byte) {
		if len(cuts) > 64 || len(order) > 256 {
			return
		}
		batches := ingestBatches(t, b, cuts)
		h := New(Options{Pipeline: p, Clock: newFakeClock().now}).Handler()
		next := 0
		send := func(seq int) {
			req := httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(batches[seq]))
			req.Header.Set(trace.HeaderStream, "s")
			req.Header.Set(trace.HeaderInstance, "i")
			req.Header.Set(trace.HeaderSeq, strconv.Itoa(seq))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			code := http.StatusConflict
			switch {
			case seq < next:
				code = http.StatusOK
			case seq == next:
				code = http.StatusNoContent
			}
			if rec.Code != code {
				t.Fatalf("seq %d (next %d of %d): status %d %q, want %d",
					seq, next, len(batches), rec.Code, rec.Body, code)
			}
			if seq == next {
				next++
			}
		}
		for _, o := range order {
			send(int(o) % len(batches))
		}
		for next < len(batches) {
			send(next)
		}
		for _, w := range want {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, w.path, nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.body) {
				t.Fatalf("%s: status %d, bytes differ from Pipeline.Run\nserver:  %.200s\noffline: %.200s",
					w.path, rec.Code, rec.Body, w.body)
			}
		}
	})
}
