package trace

import (
	"errors"
	"fmt"
	"sync"
)

// Parallel chunk pipeline. The v2 format frames records into independent
// chunks precisely so decode can fan out: one goroutine walks frames in file
// order (origin frames extend the string table serially; record frames are
// raw 40-byte-record payloads), a worker pool decodes chunk payloads, and
// chunks are delivered to the consumer strictly in frame order. Because a
// record chunk only references origins appended by earlier frames, the
// origin table visible when a chunk is read is complete for that chunk; the
// snapshot travels with it.

// maxChunkRecords bounds a single record chunk. Writers clamp their chunk
// size to it; readers reject larger counts as corrupt. It caps what a
// hostile 'R' frame header can make the decoder allocate (~40 MiB).
const maxChunkRecords = 1 << 20

// Chunk is one record chunk together with the origin table as of the frame
// that carried it.
type Chunk struct {
	// Records are the chunk's records, in stream order. The slice is only
	// valid during the ForEachChunk callback: storage is recycled afterwards.
	Records []Record
	// Origins is a read-only origin snapshot: Origins[id] is valid for every
	// Origin referenced by Records. Index 0 is "?".
	Origins []string
}

// OriginName resolves an origin ID against the chunk's snapshot; unknown IDs
// resolve to "?".
func (c Chunk) OriginName(id uint32) string {
	if int(id) < len(c.Origins) {
		return c.Origins[id]
	}
	return "?"
}

// ChunkedSource is a Source that can additionally deliver records a chunk at
// a time, decoding chunk payloads on up to workers goroutines. fn runs on
// the calling goroutine and sees chunks strictly in stream order regardless
// of worker count, so any fold over chunks is as deterministic as a serial
// walk. Chunk contents are only valid during the callback.
type ChunkedSource interface {
	Source
	ForEachChunk(workers int, fn func(Chunk) error) error
}

var (
	_ ChunkedSource = (*Buffer)(nil)
	_ ChunkedSource = (*StreamReader)(nil)
)

// ForEachChunk delivers the stored records in DefaultChunkRecords-sized
// chunks. The records are already decoded, so workers is ignored; the chunk
// slices alias the buffer and must not be mutated.
func (b *Buffer) ForEachChunk(workers int, fn func(Chunk) error) error {
	for i := 0; i < len(b.records); i += DefaultChunkRecords {
		end := min(i+DefaultChunkRecords, len(b.records))
		if err := fn(Chunk{Records: b.records[i:end], Origins: b.origins}); err != nil {
			return err
		}
	}
	return nil
}

// ForEachChunk decodes the stream's records on up to workers goroutines and
// calls fn with each chunk, in stream order, on the calling goroutine.
// workers <= 1 decodes inline with no goroutines, in blocks of at most
// readBlockRecords records read straight out of the reader's buffer, so a
// serial chunk is a slice of a frame, not a whole frame; the parallel path
// delivers one chunk per frame. Like ForEach it may be called once; memory
// is bounded by O(workers) chunks in flight plus the origin table.
//
// Serially, a frame's early blocks reach fn before its end has been read.
// Errors still take the whole-frame precedence: a frame cut short reports
// its truncation even when an earlier block of it held an out-of-range
// origin, exactly as FrameDecoder and the parallel path do.
func (s *StreamReader) ForEachChunk(workers int, fn func(Chunk) error) error {
	if s.consumed {
		return fmt.Errorf("trace: stream already consumed; reopen the file for a second pass")
	}
	s.consumed = true
	if workers <= 1 {
		block := make([]Record, s.block)
		return s.walk(func(count int) error { return s.readBlocks(count, block, fn) })
	}
	return s.forEachChunkParallel(workers, fn)
}

// readBlocks consumes one record frame of count records from the buffered
// reader, a block of at most len(block) records at a time. Each block is
// decoded straight out of bufio's buffer (Peek, then Discard), so no
// payload byte is copied, and into block, so fn reads records that are
// still in cache. A block is cut short to the whole records already
// buffered, so a refill slides fewer than RecordSize bytes to the front of
// the buffer. After an out-of-range origin no further record is delivered:
// the rest of the frame is discarded, and the origin error is returned only
// if the frame turns out to be complete.
func (s *StreamReader) readBlocks(count int, block []Record, fn func(Chunk) error) error {
	br := s.br
	for count > 0 {
		n := min(count, len(block))
		if buffered := br.Buffered() / RecordSize; buffered > 0 {
			n = min(n, buffered)
		}
		p, err := br.Peek(n * RecordSize)
		if err != nil {
			s.off += int64(len(p))
			return s.readErr("record chunk", err)
		}
		recs, bad := decodeChunk(p, n, block, len(s.origins))
		if bad != nil {
			d, err := br.Discard(count * RecordSize)
			s.off += int64(d)
			if err != nil {
				return s.readErr("record chunk", err)
			}
			return bad
		}
		_, _ = br.Discard(n * RecordSize) // cannot fail: Peek buffered these bytes
		s.off += int64(n * RecordSize)
		count -= n
		if err := fn(Chunk{Records: recs, Origins: s.origins}); err != nil {
			return err
		}
	}
	return nil
}

// decodeChunk decodes count records from raw into dst (reused, returned
// re-sliced), validating every origin reference against a table of norigins
// entries. The first out-of-range origin fails the whole chunk.
func decodeChunk(raw []byte, count int, dst []Record, norigins int) ([]Record, error) {
	if cap(dst) < count {
		dst = make([]Record, count)
	}
	dst = dst[:count]
	if i := decodeRecords(dst, raw, norigins); i < count {
		return dst[:0], fmt.Errorf("trace: record origin %d out of range (table has %d)", dst[i].Origin, norigins)
	}
	return dst, nil
}

// decodeRecords is decodeChunk's loop: it fills dst from raw (at least
// len(dst) records long) and returns the index of the first record whose
// origin is out of range, or len(dst) when every origin resolves.
//
//lint:allocfree per-record decode: one bounds check per record, fields stored straight into dst
func decodeRecords(dst []Record, raw []byte, norigins int) int {
	for i := range dst {
		decodeRecord(&dst[i], raw)
		if int(dst[i].Origin) >= norigins {
			return i
		}
		raw = raw[RecordSize:]
	}
	return len(dst)
}

// errStopped aborts the frame walk after the consumer has already failed;
// it never surfaces to the caller.
var errStopped = errors.New("trace: chunk pipeline stopped")

func (s *StreamReader) forEachChunkParallel(workers int, fn func(Chunk) error) error {
	type result struct {
		recs    []Record
		slot    *[]Record // recycler slot of recs' storage
		origins []string
		err     error
	}
	type job struct {
		raw     []byte
		slot    *[]byte // recycler slot of raw, nil for an oversized chunk
		count   int
		origins []string // snapshot; earlier entries are never mutated
		out     chan result
	}

	jobs := make(chan job, workers)
	// promises carries one single-buffered channel per chunk, in frame
	// order; delivery resolves them in order, which is the only ordering
	// mechanism the pipeline needs.
	promises := make(chan chan result, workers+1)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				slot := getRecChunk()
				recs, err := decodeChunk(j.raw, j.count, *slot, len(j.origins))
				putRawChunk(j.slot)
				j.out <- result{recs: recs, slot: slot, origins: j.origins, err: err}
			}
		}()
	}

	// Reader: walks frames sequentially (the origin table must grow in file
	// order), fanning record payloads out to the workers. Buffers come from
	// the chunk recycler, so in-flight memory stays O(workers) chunks.
	go func() {
		defer close(promises)
		defer close(jobs)
		err := s.walk(func(count int) error {
			n := count * RecordSize
			var slot *[]byte
			var dst []byte
			if n <= chunkBytes {
				slot = getRawChunk()
				dst = *slot
			} else {
				dst = make([]byte, n)
			}
			raw, err := s.take(n, dst, "record chunk")
			if err != nil {
				putRawChunk(slot)
				return err
			}
			out := make(chan result, 1)
			select {
			case promises <- out:
			case <-stop:
				putRawChunk(slot)
				return errStopped
			}
			select {
			case jobs <- job{raw: raw, slot: slot, count: count, origins: s.origins, out: out}:
			case <-stop:
				putRawChunk(slot)
				out <- result{err: errStopped}
				return errStopped
			}
			return nil
		})
		if err != nil && err != errStopped {
			// Frame-level error (truncation, bad frame, ...): deliver it in
			// order, after every chunk that preceded it.
			out := make(chan result, 1)
			out <- result{err: err}
			select {
			case promises <- out:
			case <-stop:
			}
		}
	}()

	var err error
	for out := range promises {
		res := <-out
		switch {
		case err != nil:
			// Already failed: drain remaining promises so the reader and
			// workers can exit.
		case res.err != nil:
			if res.err != errStopped {
				err = res.err
			}
			close(stop)
		default:
			err = fn(Chunk{Records: res.recs, Origins: res.origins})
			if err != nil {
				close(stop)
			}
		}
		putRecChunk(res.slot)
	}
	wg.Wait()
	return err
}
