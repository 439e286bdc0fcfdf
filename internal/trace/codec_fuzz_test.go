package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"timerstudy/internal/sim"
)

// The decoders face streams we did not write: truncated copies, corrupted
// headers, and records carrying operation or flag values this version never
// emits. None of that may panic; valid streams must round-trip. Both front
// ends of the frame walker — StreamReader over an io.Reader and
// FrameDecoder over frame-aligned batches — must agree on every input.

// decoded is what one decode of a v2 stream yields: every record with its
// origin name resolved, and the footer counters.
type decoded struct {
	recs     []Record
	names    []string
	counters Counters
}

// testBlockRecords is the serial read block decodeAll and FuzzDecodeV2 run
// the StreamReader at: small enough that a frame of a few records already
// spans several blocks.
const testBlockRecords = 3

// readStream decodes data through a StreamReader whose serial path reads
// blocks of block records.
func readStream(data []byte, block int) (decoded, error) {
	var out decoded
	sr, err := newStreamReaderBlock(bytes.NewReader(data), block)
	if err != nil {
		return out, err
	}
	err = sr.ForEach(func(r Record) {
		out.recs = append(out.recs, r)
		out.names = append(out.names, sr.OriginName(r.Origin))
	})
	out.counters, _ = sr.Counters()
	return out, err
}

// feedBatches decodes data through a FrameDecoder, cutting it into batches
// at the given ascending offsets. A clean end without the footer is reported
// with StreamReader's error text, so the two front ends compare directly.
func feedBatches(data []byte, cuts []int) (decoded, error) {
	var out decoded
	d := NewFrameDecoder()
	emit := func(c Chunk) error {
		for _, r := range c.Records {
			out.recs = append(out.recs, r)
			out.names = append(out.names, c.OriginName(r.Origin))
		}
		return nil
	}
	start := 0
	for _, end := range append(cuts[:len(cuts):len(cuts)], len(data)) {
		if err := d.Feed(data[start:end], emit); err != nil {
			return out, err
		}
		start = end
	}
	if !d.Done() {
		return out, fmt.Errorf("trace: stream truncated at byte offset %d: missing counters footer", d.Offset())
	}
	out.counters, _ = d.Counters()
	return out, nil
}

// errText renders a decode error with a batch's truncation cause spelled as
// a reader's, the one way the front ends' errors may differ.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return strings.Replace(err.Error(), errNotAligned.Error(), io.ErrUnexpectedEOF.Error(), 1)
}

// decodeAll decodes data through a StreamReader reading testBlockRecords
// records at a time and through a FrameDecoder fed the stream as one batch
// and then one frame per batch. It fails the test unless all three yield
// the same records, origins and counters, or the same error at the same
// byte offset, and returns the common result.
func decodeAll(tb testing.TB, data []byte) (decoded, error) {
	tb.Helper()
	want, wantErr := readStream(data, testBlockRecords)
	for _, cuts := range [][]int{nil, scanFrames(data)} {
		got, err := feedBatches(data, cuts)
		if errText(err) != errText(wantErr) {
			tb.Fatalf("FrameDecoder (cuts %v) error %q, StreamReader error %q", cuts, errText(err), errText(wantErr))
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			tb.Fatalf("FrameDecoder (cuts %v) decoded %+v, StreamReader %+v", cuts, got, want)
		}
	}
	return want, wantErr
}

// encodeV2 writes records through a StreamWriter of the given chunk size,
// interning origins in order first.
func encodeV2(tb testing.TB, chunk int, origins []string, recs []Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriterSize(&buf, chunk)
	for _, o := range origins {
		sw.Origin(o)
	}
	for _, r := range recs {
		sw.Log(r)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// mutate returns a copy of b with the byte at i set to v.
func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestDecodeAdversarial(t *testing.T) {
	valid := buildV2(t, 3, 8)
	// Byte 8 is the first frame: 'O' | u32 count | u32 len of the first name.
	if valid[headerSize] != frameOrigins {
		t.Fatalf("test layout drifted: frame %q at %d, want 'O'", valid[headerSize], headerSize)
	}
	cases := []struct {
		name  string
		input []byte
	}{
		{"empty", nil},
		{"bad magic", mutate(valid, 0, 'X')},
		{"future version", mutate(valid, 4, 99)},
		{"implausible origin count", mutate(valid, headerSize+4, 0xff)},
		{"origin length over limit", mutate(valid, headerSize+5+3, 0xff)},
		{"garbage", []byte(strings.Repeat("\xde\xad", 64))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeAll(t, c.input); err == nil {
				t.Fatalf("decoded %q without error", c.name)
			}
		})
	}
}

// TestDecodeToleratesUnknownOpsAndFlags feeds records whose Op and Flags
// fields are outside every defined constant: they must decode intact
// through every front end (the analysis layer is responsible for skipping
// what it does not understand), and stringifying them must not panic. A
// record naming an origin never interned is the one thing refused (see
// TestStreamReaderOriginOutOfRange); an unknown ID asked of OriginName
// resolves to "?".
func TestDecodeToleratesUnknownOpsAndFlags(t *testing.T) {
	recs := []Record{
		{T: 1, TimerID: 1, Op: Op(200), Flags: Flags(0xffff), Origin: 1},
		{T: 2, TimerID: 2, Op: nOps, Origin: 1},
		{T: 3, TimerID: 3, Op: OpSet, Timeout: -int64(sim.Second), Origin: 1},
		{T: 4, TimerID: 4, Op: OpExpire, Flags: Flags(0x8000)},
	}
	got, err := decodeAll(t, encodeV2(t, 2, []string{"kernel/x"}, recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.recs, recs) {
		t.Fatalf("records %+v, want %+v", got.recs, recs)
	}
	for i, r := range got.recs {
		if r.Op.String() == "" {
			t.Fatalf("record %d: empty op name", i)
		}
	}
	if got.counters.Unknown != 2 || got.counters.Total != 4 {
		t.Fatalf("counters %+v, want 2 unknown of 4", got.counters)
	}
	sr, err := NewStreamReader(bytes.NewReader(encodeV2(t, 2, nil, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if name := sr.OriginName(0xdeadbeef); name != "?" {
		t.Fatalf("dangling origin resolved to %q", name)
	}
}

// FuzzDecodeV2 is a differential fuzzer over the one v2 frame walker: every
// input goes to a StreamReader and to a FrameDecoder, as one batch and one
// frame per batch, and all must agree (decodeAll). A valid stream must also
// survive a re-encode / re-decode round trip with origin names intact.
func FuzzDecodeV2(f *testing.F) {
	seed := func(nrec, chunk int) []byte {
		var buf bytes.Buffer
		sw := NewStreamWriterSize(&buf, chunk)
		k := sw.Origin("kernel/x")
		u := sw.Origin("app/select")
		for i := 0; i < nrec; i++ {
			sw.Log(Record{T: sim.Time(i), TimerID: uint64(i % 2), Op: Op(i % 5),
				Origin: k + uint32(i%2)*(u-k), Timeout: int64(i) * int64(sim.Millisecond)})
		}
		if err := sw.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(0, 4))
	f.Add(seed(5, 2))
	full := seed(10, 4)
	f.Add(full[:len(full)-7])             // truncated mid-footer
	f.Add(append(full, 0))                // trailing garbage
	f.Add([]byte("TSTR\x02\x00\x00\x00")) // header only, no footer
	f.Add([]byte("TSTR"))
	// Frames spanning several testBlockRecords blocks: whole, cut inside a
	// later block, and with a bad origin in an early block of a frame cut
	// short, where truncation must win.
	multi := seed(40, 16)
	f.Add(multi)
	f.Add(multi[:len(multi)/2])
	f.Add(badOriginStream(f, 16, 1, 11))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeAll(t, data)
		if err != nil {
			return
		}
		// Valid stream: re-encode through a fresh writer (re-interning the
		// origin names) and replay; the logical records must round-trip.
		var buf bytes.Buffer
		sw := NewStreamWriterSize(&buf, 3)
		for i, r := range got.recs {
			r.Origin = sw.Origin(got.names[i])
			sw.Log(r)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := readStream(buf.Bytes(), testBlockRecords)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again.recs) != len(got.recs) {
			t.Fatalf("round-trip count %d != %d", len(again.recs), len(got.recs))
		}
		for i, r := range again.recs {
			want := got.recs[i]
			want.Origin = r.Origin // IDs may renumber; names are the identity
			if r != want {
				t.Fatalf("round-trip record %d: %+v != %+v", i, r, want)
			}
			if again.names[i] != got.names[i] {
				t.Fatalf("round-trip origin %d: %q != %q", i, again.names[i], got.names[i])
			}
		}
	})
}
