package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frameWalker is the one implementation of the v2 stream grammar, shared by
// StreamReader (bytes from an io.Reader) and FrameDecoder (bytes arriving
// as frame-aligned batches). It owns everything the stream defines: the
// header check, the origin table, the counters footer, and the byte offset
// every error names. The two front ends differ only in their input and in
// what a clean end of input between frames means: a stream without its
// footer is truncated, while a batch simply waits for the next one.
type frameWalker struct {
	origins  []string
	counters Counters
	footer   bool
	off      int64 // stream bytes consumed, header included
	frames   int64

	// The input: a buffered reader, or (br nil) the current batch from pos.
	br    *bufio.Reader
	batch []byte
	pos   int

	scratch [countersSize]byte // fixed-size fields read from br
	name    []byte             // origin-name scratch for br, reused
}

// newFrameWalker returns a walker over br, or over batches when br is nil.
func newFrameWalker(br *bufio.Reader) frameWalker {
	return frameWalker{origins: []string{"?"}, br: br}
}

// errNotAligned is the cause of a batch that ends mid-frame: producers cut
// their stream only between frames, so this is corruption or a framing bug.
var errNotAligned = errors.New("batch not frame-aligned")

// take consumes the next n input bytes and returns them. A reader copies
// them into dst (len(dst) >= n); a batch returns a slice of itself. Running
// out of input names what was being read and the byte offset where the
// input ended.
func (w *frameWalker) take(n int, dst []byte, what string) ([]byte, error) {
	if w.br == nil {
		if avail := len(w.batch) - w.pos; avail < n {
			return nil, fmt.Errorf("trace: %s truncated at byte offset %d: %w", what, w.off+int64(avail), errNotAligned)
		}
		p := w.batch[w.pos : w.pos+n]
		w.pos += n
		w.off += int64(n)
		return p, nil
	}
	got, err := io.ReadFull(w.br, dst[:n])
	w.off += int64(got)
	if err != nil {
		return nil, w.readErr(what, err)
	}
	return dst[:n], nil
}

// readErr names a failed read of what from the buffered reader at the
// current offset: running out of input is truncation, anything else is the
// reader's own error.
func (w *frameWalker) readErr(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("trace: %s truncated at byte offset %d: %w", what, w.off, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: reading %s at byte offset %d: %w", what, w.off, err)
}

// header consumes and validates the 8-byte stream header.
func (w *frameWalker) header() error {
	hdr, err := w.take(headerSize, w.scratch[:], "stream header")
	if err != nil {
		return err
	}
	if string(hdr[:4]) != magic {
		return fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version2 {
		return fmt.Errorf("trace: not a v2 stream (version %d)", v)
	}
	return nil
}

// u32 consumes one little-endian uint32.
func (w *frameWalker) u32(what string) (uint32, error) {
	p, err := w.take(4, w.scratch[:], what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

// nextKind returns the next frame's kind byte; ok is false at a clean end
// of input.
func (w *frameWalker) nextKind() (kind byte, ok bool, err error) {
	if w.br == nil {
		if w.pos == len(w.batch) {
			return 0, false, nil
		}
		kind = w.batch[w.pos]
		w.pos++
		return kind, true, nil
	}
	kind, err = w.br.ReadByte()
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("trace: reading frame at byte offset %d: %w", w.off, err)
	}
	return kind, true, nil
}

// walk validates and consumes frames until the input ends. Origin frames
// extend w.origins in place; the counters footer fills w.counters. For each
// record frame, walk consumes the header and calls records with the frame's
// record count; records must consume the count×RecordSize payload bytes
// that follow (with take, or block by block from w.br). Its errors abort the
// walk unchanged.
func (w *frameWalker) walk(records func(count int) error) error {
	le := binary.LittleEndian
	for {
		kind, ok, err := w.nextKind()
		if err != nil {
			return err
		}
		if !ok {
			if w.br != nil && !w.footer {
				return fmt.Errorf("trace: stream truncated at byte offset %d: missing counters footer", w.off)
			}
			return nil
		}
		if w.footer {
			return fmt.Errorf("trace: trailing garbage after counters footer at byte offset %d", w.off)
		}
		w.off++
		w.frames++
		switch kind {
		case frameOrigins:
			count, err := w.u32("origin frame header")
			if err != nil {
				return err
			}
			if uint64(len(w.origins))+uint64(count) > maxReasonable {
				return fmt.Errorf("trace: implausible origin table (%d entries)", uint64(len(w.origins))+uint64(count))
			}
			for i := uint32(0); i < count; i++ {
				n, err := w.u32("origin length")
				if err != nil {
					return err
				}
				if n > 1<<16 {
					return fmt.Errorf("trace: origin %d implausibly long (%d)", len(w.origins), n)
				}
				if w.br != nil && uint32(cap(w.name)) < n {
					w.name = make([]byte, n)
				}
				name, err := w.take(int(n), w.name, "origin name")
				if err != nil {
					return err
				}
				w.origins = append(w.origins, string(name))
			}
		case frameRecords:
			count, err := w.u32("record chunk header")
			if err != nil {
				return err
			}
			if count > maxChunkRecords {
				// Tighter than maxReasonable: a reader materializes the
				// chunk, so the bound also caps what a corrupt count can
				// make it allocate.
				return fmt.Errorf("trace: implausible record chunk (%d records)", count)
			}
			if err := records(int(count)); err != nil {
				return err
			}
		case frameCounters:
			foot, err := w.take(countersSize, w.scratch[:], "counters footer")
			if err != nil {
				return err
			}
			for i := range w.counters.ByOp {
				w.counters.ByOp[i] = le.Uint64(foot[i*8:])
			}
			w.counters.Total = le.Uint64(foot[nOps*8:])
			w.counters.Dropped = le.Uint64(foot[(nOps+1)*8:])
			w.counters.Unknown = le.Uint64(foot[(nOps+2)*8:])
			w.footer = true
		default:
			return fmt.Errorf("trace: unknown frame type %q at byte offset %d", kind, w.off-1)
		}
	}
}

// OriginName resolves an origin ID against the table decoded so far;
// unknown IDs resolve to "?".
func (w *frameWalker) OriginName(id uint32) string {
	if int(id) < len(w.origins) {
		return w.origins[id]
	}
	return w.origins[0]
}

// Counters returns the footer tallies; ok is false until the footer frame
// has been decoded.
func (w *frameWalker) Counters() (c Counters, ok bool) {
	return w.counters, w.footer
}

// FrameDecoder incrementally decodes a v2 stream that arrives as discrete
// frame-aligned byte batches (HTTP POST bodies from an HTTPSink) rather
// than as an io.Reader. Each Feed call decodes every frame in the batch:
// origin frames extend the string table, record frames are decoded straight
// out of the batch into a reused scratch slice and handed to emit as a
// Chunk, and the counters footer closes the stream. Memory is bounded by
// one chunk plus the origin table regardless of how many batches arrive —
// the same budget as StreamReader, whose frame walker it shares.
//
// Batches must be frame-aligned: the producer cuts its stream only between
// frames, so a batch that ends mid-frame means corruption or a framing bug
// and is an error naming the byte offset, never buffered. The first batch
// starts with the 8-byte stream header.
type FrameDecoder struct {
	frameWalker
	headerDone bool
	recs       []Record
}

// NewFrameDecoder returns a decoder expecting the stream header at the
// start of the first batch.
func NewFrameDecoder() *FrameDecoder {
	return &FrameDecoder{frameWalker: newFrameWalker(nil)}
}

// Feed decodes every frame in batch, calling emit for each record chunk on
// the calling goroutine. Chunk contents are only valid during the callback.
// Errors (emit's or framing) poison nothing by themselves, but a caller
// should stop feeding a stream that has returned one: the string table may
// be mid-extension.
func (d *FrameDecoder) Feed(batch []byte, emit func(Chunk) error) error {
	d.batch, d.pos = batch, 0
	if !d.headerDone {
		if err := d.header(); err != nil {
			return err
		}
		d.headerDone = true
	}
	return d.walk(func(count int) error {
		raw, err := d.take(count*RecordSize, nil, "record chunk")
		if err != nil {
			return err
		}
		d.recs, err = decodeChunk(raw, count, d.recs, len(d.origins))
		if err != nil {
			return err
		}
		return emit(Chunk{Records: d.recs, Origins: d.origins})
	})
}

// Done reports whether the counters footer has been decoded — the stream's
// orderly end.
func (d *FrameDecoder) Done() bool { return d.footer }

// Offset returns the count of stream bytes consumed so far, header
// included.
func (d *FrameDecoder) Offset() int64 { return d.off }

// Frames returns how many frames have been decoded so far.
func (d *FrameDecoder) Frames() int64 { return d.frames }

// countFrames counts the complete frames in a frame-aligned batch,
// tolerating (and stopping at) malformed framing: it is drop accounting,
// not validation. hasHeader says the batch begins with the stream header.
func countFrames(b []byte, hasHeader bool) int {
	le := binary.LittleEndian
	pos := 0
	if hasHeader {
		if len(b) < headerSize {
			return 0
		}
		pos = headerSize
	}
	frames := 0
	for pos < len(b) {
		kind := b[pos]
		pos++
		switch kind {
		case frameOrigins:
			if len(b)-pos < 4 {
				return frames
			}
			count := int(le.Uint32(b[pos:]))
			pos += 4
			for i := 0; i < count; i++ {
				if len(b)-pos < 4 {
					return frames
				}
				n := int(le.Uint32(b[pos:]))
				pos += 4 + n
				if pos > len(b) {
					return frames
				}
			}
		case frameRecords:
			if len(b)-pos < 4 {
				return frames
			}
			pos += 4 + int(le.Uint32(b[pos:]))*RecordSize
			if pos > len(b) {
				return frames
			}
		case frameCounters:
			pos += countersSize
			if pos > len(b) {
				return frames
			}
		default:
			return frames
		}
		frames++
	}
	return frames
}
