package trace

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"timerstudy/internal/sim"
)

// TestRecordSizeGovernsEncoding pins the exported RecordSize constant to the
// bytes the writer actually emits: an 'R' frame of n records is a kind byte,
// a u32 count and n·RecordSize bytes. DESIGN.md §"Trace format" quotes the
// same constant.
func TestRecordSizeGovernsEncoding(t *testing.T) {
	const nrec = 7
	recs := make([]Record, nrec)
	for i := range recs {
		recs[i] = Record{T: sim.Time(i), TimerID: 1, Op: OpSet, Origin: 1}
	}
	full := encodeV2(t, nrec, []string{"kernel/x"}, recs)
	bounds := frameBoundaries(t, full)
	// Frames: 'O' (one origin), 'R' (all records), 'C'.
	if len(bounds) != 4 || full[bounds[1]] != frameRecords {
		t.Fatalf("frame layout %v, want 'O','R','C'", bounds)
	}
	if got, want := bounds[2]-bounds[1], 5+nrec*RecordSize; got != want {
		t.Fatalf("'R' frame of %d records is %d bytes, want %d (RecordSize=%d drifted from the writer?)",
			nrec, got, want, RecordSize)
	}
}

// TestDecodeTruncatedAtEveryBoundary cuts a FrameDecoder batch mid-frame at
// every frame of a multi-chunk stream — right after the kind byte and
// halfway through — and requires an error naming the byte offset where the
// batch ended. A batch cut exactly at a frame boundary is not an error: the
// decoder waits for the next batch.
func TestDecodeTruncatedAtEveryBoundary(t *testing.T) {
	full := buildV2(t, 12, 4) // 3 record chunks + interleaved 'O' frames
	bounds := frameBoundaries(t, full)
	for i := 0; i+1 < len(bounds); i++ {
		for _, cut := range []int{bounds[i] + 1, (bounds[i] + bounds[i+1]) / 2} {
			d := NewFrameDecoder()
			// Everything before the frame arrives whole, then a batch that
			// ends mid-frame.
			if err := d.Feed(full[:bounds[i]], func(Chunk) error { return nil }); err != nil {
				t.Fatalf("frame %d: whole frames before the cut: %v", i, err)
			}
			err := d.Feed(full[bounds[i]:cut], func(Chunk) error { return nil })
			want := fmt.Sprintf("byte offset %d: %s", cut, errNotAligned)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("frame %d cut at %d: err = %v, want %q", i, cut, err, want)
			}
		}
	}
	if _, err := feedBatches(full, bounds); err != nil {
		t.Fatalf("stream fed frame by frame: %v", err)
	}
}

// TestDecodeRejectsImplausibleCounts: an origin table, record chunk or
// origin name whose declared size is absurd is refused before anything is
// allocated for it, by every front end.
func TestDecodeRejectsImplausibleCounts(t *testing.T) {
	le := binary.LittleEndian
	frame := func(kind byte, words ...uint32) []byte {
		b := append([]byte("TSTR\x02\x00\x00\x00"), kind)
		for _, w := range words {
			b = le.AppendUint32(b, w)
		}
		return b
	}
	for name, in := range map[string][]byte{
		"origin table": frame(frameOrigins, maxReasonable),
		"record chunk": frame(frameRecords, maxChunkRecords+1),
		"origin name":  frame(frameOrigins, 1, 1<<16+1),
	} {
		_, err := decodeAll(t, in)
		if err == nil || !strings.Contains(err.Error(), "implausib") {
			t.Fatalf("%s: err = %v, want an implausible-size error", name, err)
		}
	}
}

// TestDecodeRejectsWrongVersion: a stream whose header names another
// version is refused by every front end, naming the version.
func TestDecodeRejectsWrongVersion(t *testing.T) {
	_, err := decodeAll(t, mutate(buildV2(t, 1, 8), 4, 99))
	if err == nil || !strings.Contains(err.Error(), "not a v2 stream (version 99)") {
		t.Fatalf("err = %v, want not-a-v2-stream error", err)
	}
}

// TestEncodeDecodeLargeTrace round-trips a many-chunk stream with a growing
// origin table and compares every record through every front end.
func TestEncodeDecodeLargeTrace(t *testing.T) {
	const nrec = 50_000
	origins := make([]string, 26)
	for i := range origins {
		origins[i] = "o" + string(rune('a'+i))
	}
	recs := make([]Record, nrec)
	for i := range recs {
		recs[i] = Record{T: sim.Time(i), TimerID: uint64(i % 100), Op: Op(i % 4),
			Origin: uint32(1 + i%26)}
	}
	got, err := decodeAll(t, encodeV2(t, 4096, origins, recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.recs, recs) {
		t.Fatalf("decoded %d records, differing from the %d written", len(got.recs), nrec)
	}
	for i, r := range got.recs {
		if got.names[i] != origins[r.Origin-1] {
			t.Fatalf("record %d origin %q, want %q", i, got.names[i], origins[r.Origin-1])
		}
	}
}

func TestOriginsSorted(t *testing.T) {
	b := NewBuffer(1)
	b.Origin("zzz")
	b.Origin("aaa")
	os := b.Origins()
	for i := 1; i < len(os); i++ {
		if os[i-1] > os[i] {
			t.Fatalf("unsorted: %v", os)
		}
	}
}
