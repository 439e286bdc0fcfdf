package trace

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
)

// deterministicPools makes sync.Pool reuse exact for the rest of the test:
// one P (a Put on one P is invisible to a Get on another) and no collector
// (a GC empties pools). It skips under -race, where Pool drops Puts.
func deterministicPools(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// totalAlloc returns the bytes fn allocates.
func totalAlloc(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestStreamWriterCyclesReuseChunk pins the writer half of the chunk
// recycler: 20 serial write/Close cycles of default-size StreamWriters
// share one frame buffer instead of taking 2.5 MiB each.
func TestStreamWriterCyclesReuseChunk(t *testing.T) {
	deterministicPools(t)
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}
	got := totalAlloc(func() {
		for i := 0; i < 20; i++ {
			sw := NewStreamWriter(io.Discard)
			sw.Origin("kernel/x")
			for j := 0; j < 1000; j++ {
				sw.Log(rec)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got >= 3*chunkBytes {
		t.Fatalf("20 write/Close cycles allocated %d bytes, want < 3 chunk buffers (%d)", got, 3*chunkBytes)
	}
}

// TestStreamWriterTakesChunkAtFirstLog pins when the frame buffer is
// held: not by a writer that has logged nothing, and not after Close.
func TestStreamWriterTakesChunkAtFirstLog(t *testing.T) {
	sw := NewStreamWriter(io.Discard)
	if sw.frame != nil {
		t.Fatal("a fresh writer holds a chunk buffer")
	}
	sw.Log(Record{T: 1, Op: OpSet})
	if cap(sw.frame) != chunkBytes || sw.framep == nil {
		t.Fatalf("first Log took a %d-byte frame (pooled %v), want a recycled %d-byte one", cap(sw.frame), sw.framep != nil, chunkBytes)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.frame != nil || sw.framep != nil {
		t.Fatal("Close did not give the chunk buffer back")
	}
}

// TestStreamReadersReuseChunk pins the reader half. The serial path holds
// no chunk at all (it decodes blocks straight out of its read buffer), so
// even the first serial reader allocates less than one chunk buffer; a
// second parallel reader takes its raw and record chunks from the recycler
// instead of allocating them.
func TestStreamReadersReuseChunk(t *testing.T) {
	deterministicPools(t)
	stream := buildV2(t, 3000, DefaultChunkRecords)
	read := func(workers int) func() {
		return func() {
			sr, err := NewStreamReader(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			if err := sr.ForEachChunk(workers, func(Chunk) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := totalAlloc(read(1)); got >= chunkBytes {
		t.Fatalf("workers=1: first reader allocated %d bytes, want < one chunk buffer (%d)", got, chunkBytes)
	}
	read(2)()
	if got := totalAlloc(read(2)); got >= chunkBytes {
		t.Fatalf("workers=2: second reader allocated %d bytes, want < one chunk buffer (%d)", got, chunkBytes)
	}
}
