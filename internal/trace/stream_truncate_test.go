package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// scanFrames returns the byte offset of every frame boundary in a v2
// stream: the end of the header, then the end of each complete frame. It
// stops at the first frame it cannot complete or does not know, so any
// input yields the boundaries of its well-formed prefix. It is a test-local
// re-derivation of the framing so the decoders under test cannot mask their
// own bugs.
func scanFrames(data []byte) []int {
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil
	}
	pos := headerSize
	bounds := []int{pos}
	for pos < len(data) {
		end := pos + 1
		switch data[pos] {
		case frameOrigins:
			if end+4 > len(data) {
				return bounds
			}
			count := int(le.Uint32(data[end:]))
			end += 4
			for i := 0; i < count; i++ {
				if end+4 > len(data) {
					return bounds
				}
				end += 4 + int(le.Uint32(data[end:]))
			}
		case frameRecords:
			if end+4 > len(data) {
				return bounds
			}
			end += 4 + int(le.Uint32(data[end:]))*RecordSize
		case frameCounters:
			end += countersSize
		default:
			return bounds
		}
		if end > len(data) {
			return bounds
		}
		pos = end
		bounds = append(bounds, pos)
	}
	return bounds
}

// frameBoundaries is scanFrames for a well-formed fixture: the boundaries
// must reach the end of the stream.
func frameBoundaries(tb testing.TB, full []byte) []int {
	tb.Helper()
	bounds := scanFrames(full)
	if len(bounds) == 0 || bounds[len(bounds)-1] != len(full) {
		tb.Fatalf("frame scan stopped short: boundaries %v, stream %d bytes", bounds, len(full))
	}
	return bounds
}

// TestStreamTruncationReportsOffset cuts a 3-chunk fixture at every frame
// boundary — and mid-frame between each pair of boundaries — and requires
// the decode error to name the exact byte offset where the stream ended.
func TestStreamTruncationReportsOffset(t *testing.T) {
	full := buildV2(t, 12, 4) // 3 record chunks + interleaved 'O' frames
	bounds := frameBoundaries(t, full)
	if nframes := len(bounds) - 1; nframes < 5 {
		t.Fatalf("fixture too small: %d frames, want >= 5 (3 'R' + 'O's + 'C')", nframes)
	}

	cuts := make(map[int]bool)
	for i, b := range bounds {
		if b < len(full) {
			cuts[b] = true // cut exactly at a frame boundary
		}
		if i+1 < len(bounds) {
			cuts[(b+bounds[i+1])/2] = true // cut mid-frame
			cuts[b+1] = true               // cut right after the frame kind byte
		}
	}
	for cut := range cuts {
		sr, err := NewStreamReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		err = sr.ForEach(func(Record) {})
		if err == nil {
			t.Fatalf("cut %d: truncated stream decoded without error", cut)
		}
		want := fmt.Sprintf("byte offset %d", cut)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cut %d: error %q does not report %q", cut, err, want)
		}
	}

	// The untruncated stream still decodes cleanly.
	sr, err := NewStreamReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ForEach(func(Record) {}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamTruncationOffsetParallel pins the same contract through the
// parallel chunk pipeline: the frame walk is shared, so a truncation error
// must surface with its offset at any worker count, delivered after every
// chunk that preceded the cut.
func TestStreamTruncationOffsetParallel(t *testing.T) {
	full := buildV2(t, 12, 4)
	bounds := frameBoundaries(t, full)
	cut := (bounds[len(bounds)-2] + bounds[len(bounds)-1]) / 2 // mid-final-frame
	sr, err := NewStreamReader(bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	err = sr.ForEachChunk(4, func(Chunk) error { return nil })
	want := fmt.Sprintf("byte offset %d", cut)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("parallel decode error %q does not report %q", err, want)
	}
}
