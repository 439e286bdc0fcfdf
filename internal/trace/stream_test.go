package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"timerstudy/internal/sim"
)

// logSequence drives a Sink through a representative record stream: several
// origins (some interned mid-stream), all op kinds, and enough records to
// cross small chunk boundaries.
func logSequence(s Sink, nrec int) {
	k := s.Origin("kernel/writeback")
	x := s.Origin("Xorg/select")
	for i := 0; i < nrec; i++ {
		o := k
		if i%3 == 0 {
			o = x
		}
		if i == nrec/2 {
			o = s.Origin("late/origin") // interned after chunks already flushed
		}
		s.Log(Record{
			T: sim.Time(i), TimerID: uint64(i % 7), Op: Op(i % int(nOps)),
			Origin: o, Timeout: int64(i) * int64(sim.Millisecond),
			PID: int32(i % 3), Flags: Flags(i % 4),
		})
	}
}

// buildV2 returns an encoded v2 stream; chunkRecords < nrec forces multiple
// chunks and an incremental 'O' frame mid-stream.
func buildV2(tb testing.TB, nrec, chunkRecords int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriterSize(&buf, chunkRecords)
	logSequence(sw, nrec)
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesBuffer is the core seam equivalence: the same Origin/Log
// call sequence through a Buffer and a StreamWriter must replay to identical
// records, origin names and counters.
func TestStreamMatchesBuffer(t *testing.T) {
	const nrec = 100
	b := NewBuffer(nrec)
	logSequence(b, nrec)

	sr, err := NewStreamReader(bytes.NewReader(buildV2(t, nrec, 16)))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := sr.ForEach(func(r Record) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	want := b.Records()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, buffer holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
		if gn, wn := sr.OriginName(got[i].Origin), b.OriginName(want[i].Origin); gn != wn {
			t.Fatalf("record %d origin: %q != %q", i, gn, wn)
		}
	}
	c, ok := sr.Counters()
	if !ok {
		t.Fatal("footer counters not available after ForEach")
	}
	if c != b.Counters() {
		t.Fatalf("counters %+v != %+v", c, b.Counters())
	}
}

// TestStreamWriterOriginIDsMatchBuffer pins the interning quirk both sinks
// share: explicitly interning "?" yields a fresh ID (1), not the implicit 0,
// so record streams stay byte-identical across sink kinds.
func TestStreamWriterOriginIDsMatchBuffer(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	b := NewBuffer(8)
	for _, name := range []string{"?", "a", "b", "a", "?"} {
		if got, want := sw.Origin(name), b.Origin(name); got != want {
			t.Fatalf("Origin(%q): stream %d, buffer %d", name, got, want)
		}
	}
}

func TestStreamReaderTruncatedAtEveryBoundary(t *testing.T) {
	full := buildV2(t, 40, 8)
	for cut := 0; cut < len(full); cut++ {
		sr, err := NewStreamReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // header itself truncated: fine, already an error
		}
		if err := sr.ForEach(func(Record) {}); err == nil {
			t.Fatalf("replayed a %d-byte prefix of %d bytes without error", cut, len(full))
		}
	}
}

func TestStreamReaderMissingFooter(t *testing.T) {
	// Flush writes complete frames but no 'C' footer: the stream must be
	// rejected as truncated even though every frame parses.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	logSequence(sw, 10)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	err = sr.ForEach(func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "missing counters footer") {
		t.Fatalf("err = %v, want missing-footer error", err)
	}
	if _, ok := sr.Counters(); ok {
		t.Fatal("counters reported ok without a footer")
	}
}

func TestStreamReaderTrailingGarbage(t *testing.T) {
	full := append(buildV2(t, 10, 8), 0x00)
	sr, err := NewStreamReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	err = sr.ForEach(func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("err = %v, want trailing-garbage error", err)
	}
}

func TestStreamReaderOriginOutOfRange(t *testing.T) {
	// StreamWriter does not validate Origin, so a sink misuse (an ID never
	// interned) is representable on disk; the reader must reject it.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Log(Record{T: 1, Op: OpSet, Origin: 99})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	err = sr.ForEach(func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "origin 99 out of range") {
		t.Fatalf("err = %v, want origin-out-of-range error", err)
	}
}

func TestStreamReaderUnknownFrame(t *testing.T) {
	full := buildV2(t, 10, 8)
	// The final frame byte before the footer payload is 'C'; turn it into an
	// unknown kind.
	idx := len(full) - 1 - countersSize
	if full[idx] != frameCounters {
		t.Fatalf("test layout drifted: byte %d = %q, want 'C'", idx, full[idx])
	}
	full[idx] = 'X'
	sr, err := NewStreamReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	err = sr.ForEach(func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "unknown frame") {
		t.Fatalf("err = %v, want unknown-frame error", err)
	}
}

func TestStreamReaderImplausibleOriginLength(t *testing.T) {
	var buf bytes.Buffer
	hdr := [8]byte{'T', 'S', 'T', 'R', 2, 0, 0, 0}
	buf.Write(hdr[:])
	buf.WriteByte(frameOrigins)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], 1) // one origin...
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], 1<<20) // ...a megabyte long
	buf.Write(u32[:])
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	err = sr.ForEach(func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "implausibly long") {
		t.Fatalf("err = %v, want implausible-length error", err)
	}
}

func TestStreamReaderImplausibleCounts(t *testing.T) {
	for _, kind := range []byte{frameOrigins, frameRecords} {
		var buf bytes.Buffer
		hdr := [8]byte{'T', 'S', 'T', 'R', 2, 0, 0, 0}
		buf.Write(hdr[:])
		buf.WriteByte(kind)
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], 0xffffffff)
		buf.Write(u32[:])
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		err = sr.ForEach(func(Record) {})
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("frame %q: err = %v, want implausible-count error", kind, err)
		}
	}
}

func TestStreamReaderSingleUse(t *testing.T) {
	sr, err := NewStreamReader(bytes.NewReader(buildV2(t, 5, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ForEach(func(Record) {}); err != nil {
		t.Fatal(err)
	}
	err = sr.ForEach(func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Fatalf("second ForEach: err = %v, want already-consumed error", err)
	}
}

// TestNewStreamReaderRejectsV1 feeds the header of the retired v1 format
// (magic, version 1, u64 record count, u32 origin count): it must be
// refused with an error naming the version, never decoded or panicked on.
func TestNewStreamReaderRejectsV1(t *testing.T) {
	v1 := []byte("TSTR\x01\x00\x00\x00")
	v1 = binary.LittleEndian.AppendUint64(v1, 1)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	_, err := NewStreamReader(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "not a v2 stream (version 1)") {
		t.Fatalf("err = %v, want not-a-v2-stream error", err)
	}
}

func TestStreamWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	logSequence(sw, 3)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("second Close wrote %d more bytes", buf.Len()-n)
	}
}

// TestStreamWriterTrailingOriginsFlushed pins the origin-flush fix: labels
// interned after the last logged record (or with no records at all) must
// still reach the stream on Flush/Close instead of being dropped with the
// empty record chunk.
func TestStreamWriterTrailingOriginsFlushed(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriterSize(&buf, 4)
	sw.Log(Record{T: 1, Op: OpSet, Origin: sw.Origin("early")})
	lateID := sw.Origin("late/after-last-record")
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ForEach(func(Record) {}); err != nil {
		t.Fatal(err)
	}
	if got := sr.OriginName(lateID); got != "late/after-last-record" {
		t.Fatalf("trailing origin replayed as %q, want %q", got, "late/after-last-record")
	}

	// Same with no records at all: an origins-only stream must round-trip.
	buf.Reset()
	sw = NewStreamWriter(&buf)
	only := sw.Origin("only")
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err = NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ForEach(func(Record) {}); err != nil {
		t.Fatal(err)
	}
	if got := sr.OriginName(only); got != "only" {
		t.Fatalf("origins-only stream replayed origin as %q, want %q", got, "only")
	}
}

// TestUnknownOpCounters pins the counter invariant sum(ByOp) + Unknown ==
// Total for every sink kind, including out-of-range ops (which are stored,
// not rejected — the analysis layer skips what it does not understand), and
// its survival through the v2 footer.
func TestUnknownOpCounters(t *testing.T) {
	cases := []struct {
		name string
		ops  []Op
	}{
		{"all valid", []Op{OpInit, OpSet, OpCancel, OpExpire, OpWait}},
		{"all unknown", []Op{Op(200), Op(255), nOps}},
		{"mixed", []Op{OpSet, Op(200), OpExpire, Op(77), OpSet}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			sw := NewStreamWriterSize(&buf, 2)
			b := NewBuffer(len(tc.ops))
			for i, op := range tc.ops {
				r := Record{T: sim.Time(i), Op: op}
				sw.Log(r)
				b.Log(r)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}

			check := func(kind string, c Counters) {
				t.Helper()
				var sum uint64
				for _, n := range c.ByOp {
					sum += n
				}
				if sum+c.Unknown != c.Total {
					t.Fatalf("%s: sum(ByOp)=%d + Unknown=%d != Total=%d", kind, sum, c.Unknown, c.Total)
				}
				if c.Total != uint64(len(tc.ops)) {
					t.Fatalf("%s: Total=%d, want %d", kind, c.Total, len(tc.ops))
				}
			}
			check("buffer", b.Counters())
			check("stream writer", sw.Counters())
			if b.Counters() != sw.Counters() {
				t.Fatalf("buffer counters %+v != stream counters %+v", b.Counters(), sw.Counters())
			}

			// The footer must carry Unknown through a decode round trip, and
			// the stored records must replay intact.
			sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := sr.ForEach(func(r Record) {
				if r.Op != tc.ops[n] {
					t.Fatalf("record %d op = %d, want %d", n, r.Op, tc.ops[n])
				}
				n++
			}); err != nil {
				t.Fatal(err)
			}
			got, ok := sr.Counters()
			if !ok {
				t.Fatal("no footer counters after replay")
			}
			if got != sw.Counters() {
				t.Fatalf("footer counters %+v != writer counters %+v", got, sw.Counters())
			}
			check("footer", got)
		})
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShort
	}
	w.n -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short device" }

func TestStreamWriterStickyError(t *testing.T) {
	sw := NewStreamWriterSize(&failWriter{n: 16}, 2)
	logSequence(sw, 100)
	if err := sw.Close(); err == nil {
		t.Fatal("Close succeeded on a failing writer")
	}
	if sw.Err() == nil {
		t.Fatal("Err not sticky after underlying failure")
	}
}
