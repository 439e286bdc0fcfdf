package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Chunked v2 stream format, the one on-disk trace format. Nothing in the
// file depends on totals known only at the end of a run, so a StreamWriter
// spills records to disk while the simulation is still producing them and a
// StreamReader replays files larger than RAM:
//
//	header: magic "TSTR" | version u32 = 2
//	frames, repeated:
//	  'O' | u32 count | count × (u32 len | UTF-8 bytes)
//	      appends origins to the string table; origin 0 ("?") is implicit
//	      and never transmitted. A record chunk only references origins
//	      appended by earlier frames.
//	  'R' | u32 count | count × RecordSize bytes
//	      one chunk of records, RecordSize bytes each (see putRecord).
//	  'C' | ByOp[nOps] u64 | Total u64 | Dropped u64 | Unknown u64
//	      the counters footer; exactly once, last. A stream without it is
//	      truncated, bytes after it are garbage — both decode errors.
//
// The writer interns origins with the same first-seen ID assignment as
// Buffer, so a run traced through a StreamWriter produces byte-identical
// records to one traced through a Buffer.

const (
	version2 = 2

	frameOrigins  = 'O'
	frameRecords  = 'R'
	frameCounters = 'C'

	// DefaultChunkRecords is the StreamWriter's record-chunk size (~64 Ki
	// records, 2.5 MiB of payload per frame).
	DefaultChunkRecords = 1 << 16

	// countersSize is the byte size of the 'C' footer payload.
	countersSize = (int(nOps) + 3) * 8

	// headerSize is the byte size of the stream header (magic + version).
	headerSize = 8
)

// StreamWriter is a Sink that encodes records into the chunked v2 format as
// they arrive, spilling to w instead of holding the trace in memory. Log
// never drops records and is allocation-free outside origin interning and
// the first record's chunk acquisition. Errors on the underlying writer are
// sticky: check Err (or the Close result) after the run.
type StreamWriter struct {
	w        *bufio.Writer
	err      error
	closed   bool
	origins  []string
	originID map[string]uint32
	sent     int // origins already emitted in 'O' frames (origin 0 implicit)
	// frame is the pending record chunk, encoded in place: Log writes each
	// record's 40 bytes straight into it and flushChunk hands the whole
	// payload to the underlying writer as one frame. It is taken at the
	// first Log and given back at Close, so a writer that is built but not
	// yet logging holds no chunk; default-size frames come from the package
	// recycler (framep is their slot, nil for other sizes).
	frame        []byte
	framep       *[]byte
	chunkRecords int
	counters     Counters
	scratch      [4]byte
}

// NewStreamWriter returns a v2 stream writer with the default chunk size.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return NewStreamWriterSize(w, DefaultChunkRecords)
}

// NewStreamWriterSize returns a v2 stream writer flushing record chunks of
// chunkRecords records (values < 1 mean the default; values above the
// format's maxChunkRecords are clamped so readers accept every chunk the
// writer can produce). The header is written immediately.
func NewStreamWriterSize(w io.Writer, chunkRecords int) *StreamWriter {
	if chunkRecords < 1 {
		chunkRecords = DefaultChunkRecords
	}
	if chunkRecords > maxChunkRecords {
		chunkRecords = maxChunkRecords
	}
	s := &StreamWriter{
		w:        bufio.NewWriterSize(w, 1<<16),
		originID: make(map[string]uint32),
		origins:  []string{"?"},
		sent:     1,

		chunkRecords: chunkRecords,
	}
	var hdr [8]byte
	copy(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version2)
	_, err := s.w.Write(hdr[:])
	s.setErr(err)
	return s
}

func (s *StreamWriter) setErr(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// Origin interns an origin label with the same ID assignment as
// Buffer.Origin. New labels are transmitted in an 'O' frame before the next
// record chunk.
func (s *StreamWriter) Origin(name string) uint32 {
	if id, ok := s.originID[name]; ok {
		return id
	}
	id := uint32(len(s.origins))
	s.origins = append(s.origins, name)
	s.originID[name] = id
	return id
}

// Log encodes one record into the current chunk, flushing the chunk to the
// underlying writer when full. StreamWriter never drops records. A record
// whose Op is outside the defined enum tallies under Counters.Unknown (it is
// still stored), keeping the footer invariant sum(ByOp)+Unknown == Total.
//
//lint:allocfree per-record hot path; the chunk buffer is taken once, at the first record (TestStreamWriterLogZeroAlloc)
func (s *StreamWriter) Log(r Record) {
	if int(r.Op) < int(nOps) {
		s.counters.ByOp[r.Op]++
	} else {
		s.counters.Unknown++
	}
	s.counters.Total++
	if s.frame == nil {
		s.takeFrame()
	}
	n := len(s.frame)
	s.frame = s.frame[:n+RecordSize]
	putRecord(s.frame[n:], &r)
	if len(s.frame) == cap(s.frame) {
		s.flushChunk()
	}
}

// takeFrame acquires the chunk buffer; the cold path of Log.
func (s *StreamWriter) takeFrame() {
	if s.chunkRecords == DefaultChunkRecords {
		s.framep = getRawChunk()
		s.frame = (*s.framep)[:0]
		return
	}
	s.frame = make([]byte, 0, s.chunkRecords*RecordSize)
}

// releaseFrame gives the chunk buffer back once the stream is closed.
func (s *StreamWriter) releaseFrame() {
	putRawChunk(s.framep)
	s.frame, s.framep = nil, nil
}

// flushChunk emits pending origins and the buffered records as frames.
// Origins interned since the last flush are emitted even when no records are
// buffered, so a Flush/Close after a trailing Origin call never drops them.
func (s *StreamWriter) flushChunk() {
	if s.err != nil {
		s.frame = s.frame[:0]
		return
	}
	if s.sent < len(s.origins) {
		s.frameHeader(frameOrigins, uint32(len(s.origins)-s.sent))
		for _, name := range s.origins[s.sent:] {
			binary.LittleEndian.PutUint32(s.scratch[:], uint32(len(name)))
			s.write(s.scratch[:])
			_, err := s.w.WriteString(name)
			s.setErr(err)
		}
		s.sent = len(s.origins)
	}
	if len(s.frame) == 0 {
		return
	}
	s.frameHeader(frameRecords, uint32(len(s.frame)/RecordSize))
	s.write(s.frame)
	s.frame = s.frame[:0]
}

func (s *StreamWriter) frameHeader(kind byte, count uint32) {
	s.setErr(s.w.WriteByte(kind))
	binary.LittleEndian.PutUint32(s.scratch[:], count)
	s.write(s.scratch[:])
}

func (s *StreamWriter) write(p []byte) {
	_, err := s.w.Write(p)
	s.setErr(err)
}

// Flush writes any buffered partial chunk and flushes the underlying
// writer. The stream remains open for more records.
func (s *StreamWriter) Flush() error {
	s.flushChunk()
	s.setErr(s.w.Flush())
	return s.err
}

// Close flushes buffered records, writes the counters footer, flushes the
// underlying writer (it does not close it) and gives the chunk buffer back.
// Further Close calls return the sticky error without writing anything.
func (s *StreamWriter) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.flushChunk()
	s.releaseFrame()
	if s.err == nil {
		s.setErr(s.w.WriteByte(frameCounters))
		var buf [countersSize]byte
		le := binary.LittleEndian
		for i, n := range s.counters.ByOp {
			le.PutUint64(buf[i*8:], n)
		}
		le.PutUint64(buf[nOps*8:], s.counters.Total)
		le.PutUint64(buf[(nOps+1)*8:], s.counters.Dropped)
		le.PutUint64(buf[(nOps+2)*8:], s.counters.Unknown)
		s.write(buf[:])
	}
	s.setErr(s.w.Flush())
	return s.err
}

// Err returns the first error seen on the underlying writer.
func (s *StreamWriter) Err() error { return s.err }

// Counters returns a copy of the operation tallies so far.
func (s *StreamWriter) Counters() Counters { return s.counters }

// readBlockRecords is the most records the serial read path decodes at a
// time: 40 KiB of payload, which fits in bufio's 64 KiB buffer, and 40 KiB
// of decoded records, which stay in L1/L2 for the consumer's fold.
const readBlockRecords = 1024

// StreamReader is a single-use Source replaying a v2 stream. It holds a
// 64 KiB read buffer, a block of decoded records (or, in the parallel path,
// a few chunks in flight) plus the origin table — never the whole trace —
// so files larger than RAM decode in constant memory. Reopen the underlying
// file for a second pass. Its frame walker is the one FrameDecoder uses, so
// a stream decodes identically read from a file or fed batch by batch.
type StreamReader struct {
	frameWalker
	consumed bool
	block    int // records per serial block; readBlockRecords outside tests
}

// NewStreamReader validates the v2 header of r and returns a reader for the
// stream. Anything else, a v1 trace included, is refused with an error.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	s := &StreamReader{frameWalker: newFrameWalker(bufio.NewReaderSize(r, 1<<16)), block: readBlockRecords}
	if err := s.header(); err != nil {
		return nil, err
	}
	return s, nil
}

// ForEach decodes the stream, calling fn for every record in order. It
// validates framing as it goes: a record referencing an origin the string
// table does not (yet) contain, a missing counters footer, or bytes after
// the footer are all errors, never panics. ForEach may be called once.
//
// Decoding is block-at-a-time (ForEachChunk's serial path), so memory is
// bounded by one block plus the origin table, never the trace.
func (s *StreamReader) ForEach(fn func(Record)) error {
	return s.ForEachChunk(1, func(c Chunk) error {
		for _, r := range c.Records {
			fn(r)
		}
		return nil
	})
}
