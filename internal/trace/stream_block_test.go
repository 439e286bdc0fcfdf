package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"timerstudy/internal/sim"
)

// badOriginStream returns a stream of one nrec-record frame whose record bad
// names origin 99, which is never interned. With cut < nrec the stream ends
// after cut records of that frame's payload; otherwise it is whole, footer
// included.
func badOriginStream(tb testing.TB, nrec, bad, cut int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriterSize(&buf, nrec)
	for i := 0; i < nrec; i++ {
		r := Record{T: sim.Time(i), TimerID: uint64(i), Op: OpSet}
		if i == bad {
			r.Origin = 99
		}
		sw.Log(r)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	if cut >= nrec {
		return buf.Bytes()
	}
	return buf.Bytes()[:headerSize+5+cut*RecordSize] // header, then 'R' | u32 count
}

// TestStreamReaderBlockErrorPrecedence pins the whole-frame error contract
// on the block read path: a frame cut short reports its truncation even
// though an earlier block of it named an out-of-range origin, as a reader
// of whole frames and FrameDecoder do; the same frame complete reports the
// origin. Either way no record at or past the bad one is delivered.
func TestStreamReaderBlockErrorPrecedence(t *testing.T) {
	const nrec, bad, cut = 2000, 5, 1500
	trunc := badOriginStream(t, nrec, bad, cut)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"cut", trunc, fmt.Sprintf("trace: record chunk truncated at byte offset %d: %v", len(trunc), io.ErrUnexpectedEOF)},
		{"whole", badOriginStream(t, nrec, bad, nrec), "trace: record origin 99 out of range (table has 1)"},
	}
	for _, c := range cases {
		for _, block := range []int{readBlockRecords, testBlockRecords} {
			sr, err := newStreamReaderBlock(bytes.NewReader(c.data), block)
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			err = sr.ForEachChunk(1, func(ch Chunk) error {
				delivered += len(ch.Records)
				return nil
			})
			if errText(err) != c.want {
				t.Errorf("%s, block %d: error %q, want %q", c.name, block, errText(err), c.want)
			}
			if delivered > bad {
				t.Errorf("%s, block %d: delivered %d records, past the bad origin at %d", c.name, block, delivered, bad)
			}
		}
		sr, err := NewStreamReader(bytes.NewReader(c.data))
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.ForEachChunk(2, func(Chunk) error { return nil }); errText(err) != c.want {
			t.Errorf("%s, parallel: error %q, want %q", c.name, errText(err), c.want)
		}
		if _, err := feedBatches(c.data, nil); errText(err) != c.want {
			t.Errorf("%s, FrameDecoder: error %q, want %q", c.name, errText(err), c.want)
		}
	}
}

// TestStreamReaderBlocksMatchFrames decodes streams whose frames sit on
// either side of the block size, and one default-size frame, through the
// reader at its own block size and at testBlockRecords, through both
// FrameDecoder cut patterns, and from a Buffer fed the same calls: every
// path must yield the same records, origins and counters.
func TestStreamReaderBlocksMatchFrames(t *testing.T) {
	for _, n := range []int{1, readBlockRecords - 1, readBlockRecords, readBlockRecords + 1, DefaultChunkRecords} {
		nrec := 2*n + 1 // frames of n, n and 1 records, an 'O' frame mid-stream
		b := NewBuffer(nrec)
		logSequence(b, nrec)
		want := decoded{recs: b.Records(), counters: b.Counters()}
		for _, r := range want.recs {
			want.names = append(want.names, b.OriginName(r.Origin))
		}
		data := buildV2(t, nrec, n)
		got, err := readStream(data, readBlockRecords)
		if err != nil {
			t.Fatalf("frames of %d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frames of %d: the reader's blocks decode differently from the Buffer", n)
		}
		small, err := decodeAll(t, data)
		if err != nil {
			t.Fatalf("frames of %d, block %d: %v", n, testBlockRecords, err)
		}
		if !reflect.DeepEqual(small, want) {
			t.Fatalf("frames of %d, block %d: decode differs from the Buffer", n, testBlockRecords)
		}
	}
}

// putRecordFields is the reference layout written one field at a time:
// Op at byte 32, Flags at 33..34, zero padding at 35..39.
func putRecordFields(dst []byte, r Record) {
	le := binary.LittleEndian
	le.PutUint64(dst[0:], uint64(r.T))
	le.PutUint64(dst[8:], r.TimerID)
	le.PutUint64(dst[16:], uint64(r.Timeout))
	le.PutUint32(dst[24:], uint32(r.PID))
	le.PutUint32(dst[28:], r.Origin)
	dst[32] = byte(r.Op)
	le.PutUint16(dst[33:], uint16(r.Flags))
	dst[35], dst[36], dst[37], dst[38], dst[39] = 0, 0, 0, 0, 0
}

// TestPutRecordMatchesFieldStores holds putRecord's single tail store to
// the per-field layout, on records that use every byte of every field and
// over scratch full of garbage the padding must overwrite with zeros, and
// decodeRecord to its inverse.
func TestPutRecordMatchesFieldStores(t *testing.T) {
	recs := []Record{
		{T: 0x0102030405060708, TimerID: 0x1112131415161718, Timeout: -0x2122232425262728,
			PID: -0x31323334, Origin: 0x41424344, Op: 0xa5, Flags: 0xb6c7},
		{T: -1, TimerID: ^uint64(0), Timeout: -1, PID: -1, Origin: ^uint32(0), Op: 0xff, Flags: 0xffff},
		{},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		recs = append(recs, Record{T: sim.Time(rng.Uint64()), TimerID: rng.Uint64(), Timeout: int64(rng.Uint64()),
			PID: int32(rng.Uint32()), Origin: rng.Uint32(), Op: Op(rng.Uint32()), Flags: Flags(rng.Uint32())})
	}
	for _, r := range recs {
		got := bytes.Repeat([]byte{0xee}, RecordSize)
		want := bytes.Repeat([]byte{0xee}, RecordSize)
		putRecord(got, &r)
		putRecordFields(want, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: putRecord % x, per-field % x", r, got, want)
		}
		var back Record
		decodeRecord(&back, got)
		if back != r {
			t.Fatalf("decodeRecord(putRecord(%+v)) = %+v", r, back)
		}
	}
}
