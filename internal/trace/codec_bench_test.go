package trace

import (
	"bytes"
	"io"
	"testing"

	"timerstudy/internal/sim"
)

// benchRecord returns the i-th record of a paper-shaped stream: a few
// hundred timers, every op, millisecond timeouts, user and kernel origins.
func benchRecord(i int) Record {
	return Record{T: sim.Time(i) * 997, TimerID: uint64(i % 311), Op: Op(i % int(nOps)),
		Timeout: int64(i%50) * int64(sim.Millisecond), PID: int32(i % 5), Origin: uint32(i % 3), Flags: Flags(i % 2)}
}

// reportPerRecord reports the benchmark's time per record, n records an op.
func reportPerRecord(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
}

// BenchmarkDecodeChunk decodes one default-size record chunk from its raw
// payload, the codec kernel behind every read path.
func BenchmarkDecodeChunk(b *testing.B) {
	const n = DefaultChunkRecords
	raw := make([]byte, n*RecordSize)
	for i := 0; i < n; i++ {
		r := benchRecord(i)
		putRecord(raw[i*RecordSize:], &r)
	}
	dst := make([]Record, n)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeChunk(raw, n, dst, 3); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, n)
}

// BenchmarkStreamReaderForEachChunk replays a four-frame stream through the
// serial ForEachChunk path, reader construction included, folding each
// record's timestamp so the records are read.
func BenchmarkStreamReaderForEachChunk(b *testing.B) {
	const n = 4 * DefaultChunkRecords
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Origin("kernel/x")
	sw.Origin("app/select")
	for i := 0; i < n; i++ {
		sw.Log(benchRecord(i))
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	var sum sim.Time
	fold := func(c Chunk) error {
		for i := range c.Records {
			sum += c.Records[i].T
		}
		return nil
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if err := sr.ForEachChunk(1, fold); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, n)
	if sum == 0 {
		b.Fatal("folded nothing")
	}
}

// BenchmarkStreamWriterLog encodes records through a default StreamWriter
// into io.Discard, chunk flushes included.
func BenchmarkStreamWriterLog(b *testing.B) {
	recs := make([]Record, 4096) // built up front: the loop times Log alone
	for i := range recs {
		recs[i] = benchRecord(i)
	}
	sw := NewStreamWriter(io.Discard)
	sw.Origin("kernel/x")
	sw.Origin("app/select")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Log(recs[i%len(recs)])
	}
	reportPerRecord(b, 1)
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
}
