package trace

import (
	"bytes"
	"io"
	"testing"

	"timerstudy/internal/sim"
)

// TestLogZeroAlloc guards the two steady states of the Log hot path: while
// the buffer is within its preallocated storage, and once it is at capacity
// (the drop path). Both must be allocation-free; between them the only cost
// is amortized slice growth for buffers larger than the prealloc bound.
// Run under -count=1 in CI (scripts/check.sh) so a regression fails.
func TestLogZeroAlloc(t *testing.T) {
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}

	within := NewBuffer(preallocRecords)
	if allocs := testing.AllocsPerRun(1000, func() { within.Log(rec) }); allocs != 0 {
		t.Errorf("Log within prealloc allocates %.1f objects/op, want 0", allocs)
	}

	full := NewBuffer(8)
	for i := 0; i < 8; i++ {
		full.Log(rec)
	}
	if allocs := testing.AllocsPerRun(1000, func() { full.Log(rec) }); allocs != 0 {
		t.Errorf("Log at capacity allocates %.1f objects/op, want 0", allocs)
	}
	if full.Len() != 8 {
		t.Fatalf("capacity overrun: Len = %d", full.Len())
	}
	if full.Counters().Dropped == 0 {
		t.Fatal("drop path not exercised")
	}

	disabled := NewBuffer(0)
	if allocs := testing.AllocsPerRun(1000, func() { disabled.Log(rec) }); allocs != 0 {
		t.Errorf("Log with tracing disabled allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNewBufferPreallocBounded pins the memory contract: small buffers
// reserve exactly their capacity, huge buffers reserve only the bounded
// prealloc (a full DefaultCapacity buffer must not commit 512 MiB eagerly).
func TestNewBufferPreallocBounded(t *testing.T) {
	if got := cap(NewBuffer(100).records); got != 100 {
		t.Fatalf("small buffer prealloc = %d, want 100", got)
	}
	if got := cap(NewBuffer(DefaultCapacity).records); got != preallocRecords {
		t.Fatalf("large buffer prealloc = %d, want %d", got, preallocRecords)
	}
	if got := cap(NewBuffer(0).records); got != 0 {
		t.Fatalf("disabled buffer prealloc = %d, want 0", got)
	}
}

func BenchmarkLog(b *testing.B) {
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}
	b.Run("store", func(b *testing.B) {
		buf := NewBuffer(DefaultCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Log(rec)
		}
	})
	b.Run("at-capacity", func(b *testing.B) {
		buf := NewBuffer(64)
		for i := 0; i < 64; i++ {
			buf.Log(rec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Log(rec)
		}
	})
}

// TestStreamWriterLogZeroAlloc guards the spill hot path: once origins are
// interned, Log must be allocation-free both within a chunk and across chunk
// flushes (putRecord goes through the writer's scratch buffer; the frames
// land in the bufio buffer or the underlying writer without per-record
// allocation). Run without -race in CI, like the other alloc guards.
func TestStreamWriterLogZeroAlloc(t *testing.T) {
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}

	within := NewStreamWriter(io.Discard) // default chunk far exceeds the run count
	within.Origin("kernel/x")
	if allocs := testing.AllocsPerRun(1000, func() { within.Log(rec) }); allocs != 0 {
		t.Errorf("Log within a chunk allocates %.1f objects/op, want 0", allocs)
	}

	flushing := NewStreamWriterSize(io.Discard, 64) // ~15 flushes over the run
	flushing.Origin("kernel/x")
	if allocs := testing.AllocsPerRun(1000, func() { flushing.Log(rec) }); allocs != 0 {
		t.Errorf("Log across chunk flushes allocates %.1f objects/op, want 0", allocs)
	}
	if err := flushing.Close(); err != nil {
		t.Fatal(err)
	}
	if c := flushing.Counters(); c.Dropped != 0 || c.Total == 0 {
		t.Fatalf("counters %+v: StreamWriter must never drop", c)
	}
}

// TestFrameDecoderFeedZeroAlloc guards the serve ingest decode: once the
// header is in and the record scratch has grown, feeding a batch of record
// frames allocates nothing, because the walker decodes straight out of the
// batch. Run without -race in CI, like the other alloc guards.
func TestFrameDecoderFeedZeroAlloc(t *testing.T) {
	full := buildV2(t, 64, 16)
	bounds := frameBoundaries(t, full)
	var rframe []byte
	for i := 0; rframe == nil && i+1 < len(bounds); i++ {
		if full[bounds[i]] == frameRecords {
			rframe = full[bounds[i]:bounds[i+1]]
		}
	}
	d := NewFrameDecoder()
	noop := func(Chunk) error { return nil }
	// Everything but the footer, so the batch below may follow.
	if err := d.Feed(full[:bounds[len(bounds)-2]], noop); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.Feed(rframe, noop); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Feed of a record-frame batch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStreamReaderForEachChunkZeroAlloc guards the serial read path: once
// the reader is built, a pass allocates its one block of records and
// nothing per block, because each block is decoded straight out of the
// reader's buffer into that block. A one-block stream and a stream of
// hundreds of blocks over several frames must cost the same. Run without
// -race in CI, like the other alloc guards.
func TestStreamReaderForEachChunkZeroAlloc(t *testing.T) {
	pass := func(nrec int) float64 {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		for i := 0; i < nrec; i++ {
			sw.Log(Record{T: sim.Time(i), TimerID: uint64(i % 7), Op: OpSet, Timeout: int64(i)})
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		const runs = 4
		readers := make([]*StreamReader, runs+1) // AllocsPerRun adds a warm-up run
		for i := range readers {
			var err error
			if readers[i], err = NewStreamReader(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		noop := func(Chunk) error { return nil }
		return testing.AllocsPerRun(runs, func() {
			if err := readers[next].ForEachChunk(1, noop); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	const nrec = 3*DefaultChunkRecords + 5000 // four frames, hundreds of blocks
	one, many := pass(10), pass(nrec)
	if one > 1 || many != one {
		t.Errorf("a serial pass allocates %.1f objects over 10 records, %.1f over %d; want at most 1 (the block), the same for both",
			one, many, nrec)
	}
}
