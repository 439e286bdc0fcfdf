package trace

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"timerstudy/internal/sim"
)

// workerSweep is the canonical worker-count matrix: serial, minimal
// parallelism, the host's parallelism, and heavy oversubscription.
func workerSweep() []int {
	ncpu := runtime.NumCPU()
	return []int{1, 2, ncpu, ncpu * 4}
}

// replaySerial is the reference: a plain ForEach over a fresh reader,
// capturing records plus resolved origin names.
func replaySerial(t *testing.T, data []byte) ([]Record, []string) {
	t.Helper()
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := sr.ForEach(func(r Record) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = sr.OriginName(r.Origin)
	}
	return recs, names
}

// TestForEachChunkMatchesSerial sweeps worker counts and asserts the
// parallel walk delivers exactly the serial record sequence, in order.
func TestForEachChunkMatchesSerial(t *testing.T) {
	const nrec = 10_000
	data := buildV2(t, nrec, 512) // ~20 chunks, incremental 'O' frame mid-stream
	wantRecs, wantNames := replaySerial(t, data)

	for _, workers := range workerSweep() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sr, err := NewStreamReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var got []Record
			if err := sr.ForEachChunk(workers, func(c Chunk) error {
				got = append(got, c.Records...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wantRecs) {
				t.Fatalf("replayed %d records, want %d", len(got), len(wantRecs))
			}
			for i := range got {
				if got[i] != wantRecs[i] {
					t.Fatalf("record %d: %+v != %+v", i, got[i], wantRecs[i])
				}
				if gn := sr.OriginName(got[i].Origin); gn != wantNames[i] {
					t.Fatalf("record %d origin: %q != %q", i, gn, wantNames[i])
				}
			}
			c, ok := sr.Counters()
			if !ok {
				t.Fatal("no footer counters after parallel replay")
			}
			if c.Total != nrec {
				t.Fatalf("footer Total = %d, want %d", c.Total, nrec)
			}
		})
	}
}

// TestForEachChunkOriginStraddle is the chunk-boundary torture test: with a
// chunk size of 1, every record gets its own 'R' frame and origins interned
// mid-stream land in 'O' frames between record chunks. Every chunk's origin
// snapshot must resolve that chunk's records, at every worker count.
func TestForEachChunkOriginStraddle(t *testing.T) {
	const nrec = 300
	var buf bytes.Buffer
	sw := NewStreamWriterSize(&buf, 1)
	// A fresh origin before (almost) every record: maximal straddling.
	for i := 0; i < nrec; i++ {
		o := uint32(0)
		if i%2 == 0 {
			o = sw.Origin(fmt.Sprintf("origin/%d", i))
		}
		sw.Log(Record{T: sim.Time(i), TimerID: uint64(i), Op: OpSet, Origin: o})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, workers := range workerSweep() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sr, err := NewStreamReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			err = sr.ForEachChunk(workers, func(c Chunk) error {
				for _, r := range c.Records {
					want := "?"
					if i%2 == 0 {
						want = fmt.Sprintf("origin/%d", i)
					}
					if got := c.OriginName(r.Origin); got != want {
						return fmt.Errorf("record %d resolved to %q via chunk snapshot, want %q", i, got, want)
					}
					i++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != nrec {
				t.Fatalf("delivered %d records, want %d", i, nrec)
			}
		})
	}
}

// TestBufferForEachChunk checks the in-memory implementation: full coverage
// in order, shared origin table, and chunking at DefaultChunkRecords.
func TestBufferForEachChunk(t *testing.T) {
	nrec := DefaultChunkRecords + 100 // forces two chunks
	b := NewBuffer(nrec)
	logSequence(b, nrec)

	i, chunks := 0, 0
	err := b.ForEachChunk(8, func(c Chunk) error {
		chunks++
		for _, r := range c.Records {
			if want := b.Records()[i]; r != want {
				return fmt.Errorf("record %d: %+v != %+v", i, r, want)
			}
			if gn, wn := c.OriginName(r.Origin), b.OriginName(r.Origin); gn != wn {
				return fmt.Errorf("record %d origin: %q != %q", i, gn, wn)
			}
			i++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != nrec || chunks != 2 {
		t.Fatalf("delivered %d records in %d chunks, want %d in 2", i, chunks, nrec)
	}
}

// TestForEachChunkCallbackErrorStops asserts a consumer error aborts the
// pipeline promptly (reader and workers wound down, no goroutine leak under
// -race) and surfaces verbatim.
func TestForEachChunkCallbackErrorStops(t *testing.T) {
	data := buildV2(t, 10_000, 64)
	sentinel := errors.New("stop here")
	for _, workers := range workerSweep() {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		chunks := 0
		err = sr.ForEachChunk(workers, func(Chunk) error {
			chunks++
			if chunks == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if chunks != 3 {
			t.Fatalf("workers=%d: fn ran %d times after error, want 3", workers, chunks)
		}
	}
}

// TestForEachChunkTruncatedStream asserts decode errors surface at every
// worker count, after the chunks that preceded them.
func TestForEachChunkTruncatedStream(t *testing.T) {
	full := buildV2(t, 2000, 64)
	trunc := full[:len(full)*2/3]
	for _, workers := range workerSweep() {
		sr, err := NewStreamReader(bytes.NewReader(trunc))
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.ForEachChunk(workers, func(Chunk) error { return nil }); err == nil {
			t.Fatalf("workers=%d: truncated stream replayed without error", workers)
		}
	}
}

// TestForEachChunkOriginOutOfRange: the per-record origin validation moved
// into chunk decode; it must still fire on every path.
func TestForEachChunkOriginOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Log(Record{T: 1, Op: OpSet, Origin: 99})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerSweep() {
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		err = sr.ForEachChunk(workers, func(Chunk) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "origin 99 out of range") {
			t.Fatalf("workers=%d: err = %v, want origin-out-of-range error", workers, err)
		}
	}
}

func TestForEachChunkSingleUse(t *testing.T) {
	sr, err := NewStreamReader(bytes.NewReader(buildV2(t, 5, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ForEachChunk(4, func(Chunk) error { return nil }); err != nil {
		t.Fatal(err)
	}
	err = sr.ForEachChunk(4, func(Chunk) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Fatalf("second ForEachChunk: err = %v, want already-consumed error", err)
	}
}
