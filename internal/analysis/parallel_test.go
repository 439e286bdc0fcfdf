package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// standardPipeline is the full-artifact configuration the worker-sweep tests
// analyze under (the same shape cmd/experiments uses).
func standardPipeline() Pipeline {
	vFilt := ValueOptions{
		JiffyBinKernel: true, MinSharePercent: 2,
		CollapseCountdowns: true, ExcludeProcesses: []string{"Xorg", "icewm"},
	}
	vUser := ValueOptions{UserOnly: true, MinSharePercent: 2, CollapseCountdowns: true}
	sOpts := DefaultScatterOptions()
	sOpts.ExcludeProcesses = []string{"Xorg", "icewm"}
	return Pipeline{
		Values:         ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		ValuesFiltered: &vFilt,
		ValuesUser:     &vUser,
		Scatter:        &sOpts,
		SeriesProcess:  "Xorg",
		OriginMinSets:  10,
	}
}

// wideTrace extends richTrace with a many-timer synthetic tail so shards
// actually receive work and chunk boundaries fall mid-lifecycle: 512 timers
// across a few origins, interleaved set/expire/cancel with varied timeouts
// and processes, plus same-instant armings to exercise the series
// tie-break. Two timers run through the whole tail: a select countdown
// (countdownID) re-armed with its remaining time, so every third of the
// tail gives it well over 1,000 distinct timeout values, and a timer
// (pidHopID) whose PID goes A→B→A, so its cluster key changes and changes
// back.
func wideTrace() *trace.Buffer {
	b := richTrace()
	origins := []string{"kernel/tcp", "firefox/poll", "Xorg/select", "svc/wait"}
	t0 := sim.Time(0)
	for i := 0; i < 20_000; i++ {
		id := uint64(100 + i%512)
		origin := origins[i%len(origins)]
		var flags trace.Flags
		if i%len(origins) != 0 {
			flags = trace.FlagUser
		}
		timeout := sim.Duration(1+i%3) * 100 * sim.Millisecond
		b.Log(trace.Record{
			T: t0, Op: trace.OpSet, TimerID: id, Timeout: int64(timeout),
			Origin: b.Origin(origin), PID: int32(i % 5), Flags: flags,
		})
		endOp := trace.OpExpire
		if i%3 == 0 {
			endOp = trace.OpCancel
		}
		b.Log(trace.Record{
			T: t0 + sim.Time(timeout), Op: endOp, TimerID: id,
			Origin: b.Origin(origin), PID: int32(i % 5), Flags: flags,
		})
		if i%4 == 1 {
			b.Log(trace.Record{
				T: t0, Op: trace.OpSet, TimerID: countdownID, Timeout: int64(sim.Hour - sim.Duration(t0)),
				Origin: b.Origin("firefox/poll"), PID: 3, Flags: trace.FlagUser,
			})
		}
		if i%8 == 2 {
			pid := int32(40 + (i/8)%3%2) // 40, 41, 40, 40, 41, 40, …
			b.Log(trace.Record{
				T: t0, Op: trace.OpSet, TimerID: pidHopID, Timeout: int64(250 * sim.Millisecond),
				Origin: b.Origin("svc/wait"), PID: pid, Flags: trace.FlagUser,
			})
		}
		if i%7 != 0 {
			t0 += sim.Time(10 * sim.Millisecond) // i%7==0 repeats the instant
		}
	}
	return b
}

// The wideTrace timers that outgrow the common per-timer shapes.
const (
	countdownID = 90
	pidHopID    = 91
)

// spillTrace re-logs a Buffer through a StreamWriter with the given chunk
// size and returns the encoded v2 stream.
func spillTrace(tb testing.TB, b *trace.Buffer, chunkRecords int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw := trace.NewStreamWriterSize(&buf, chunkRecords)
	for _, r := range b.Records() {
		r.Origin = sw.Origin(b.OriginName(r.Origin))
		sw.Log(r)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func reportBytes(tb testing.TB, rep *Report) []byte {
	tb.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestRunParallelMatchesRunAcrossWorkers is the determinism pin for the
// parallel pipeline: byte-identical reports from Run and from RunParallel at
// 1, 2, NumCPU and NumCPU×4 workers, over both the in-memory Buffer and a
// v2 stream.
func TestRunParallelMatchesRunAcrossWorkers(t *testing.T) {
	p := standardPipeline()
	b := wideTrace()
	data := spillTrace(t, b, 1024) // dozens of chunks

	serial, err := p.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	// Pin the streaming summary (the PID-hopping timer's clusters included)
	// to the lifecycle reconstruction, independently of the shard code.
	if got, ref := serial.Summary, Summarize(b); got != ref {
		t.Fatalf("Run summary %+v, lifecycle summary %+v", got, ref)
	}

	// The stream and the buffer must agree before parallelism enters.
	sr, err := trace.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	streamRep, err := p.Run(sr)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, streamRep); !bytes.Equal(got, want) {
		t.Fatalf("stream serial report differs from buffer report:\n%s\n%s", got, want)
	}

	for _, workers := range []int{1, 2, runtime.NumCPU(), runtime.NumCPU() * 4} {
		t.Run(fmt.Sprintf("buffer/workers=%d", workers), func(t *testing.T) {
			rep, err := p.RunParallel(b, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("parallel report differs from serial:\n%s\n%s", got, want)
			}
		})
		t.Run(fmt.Sprintf("stream/workers=%d", workers), func(t *testing.T) {
			sr, err := trace.NewStreamReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.RunParallel(sr, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("parallel stream report differs from serial:\n%s\n%s", got, want)
			}
		})
	}
}

// TestRunParallelChunkTorture re-runs the sweep over a stream written with
// chunkRecords=3: nearly every record chunk straddles an origin frame, and
// timer lifecycles span many chunks.
func TestRunParallelChunkTorture(t *testing.T) {
	p := standardPipeline()
	b := richTrace()
	data := spillTrace(t, b, 3)

	serial, err := p.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	for _, workers := range []int{1, 2, runtime.NumCPU(), runtime.NumCPU() * 4} {
		sr, err := trace.NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.RunParallel(sr, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: torture report differs:\n%s\n%s", workers, got, want)
		}
	}
}

// TestRunParallelPropagatesDecodeErrors: a truncated stream must fail, not
// return a partial report.
func TestRunParallelPropagatesDecodeErrors(t *testing.T) {
	data := spillTrace(t, richTrace(), 16)
	sr, err := trace.NewStreamReader(bytes.NewReader(data[:len(data)*2/3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := standardPipeline().RunParallel(sr, 4); err == nil {
		t.Fatal("RunParallel returned a report from a truncated stream")
	}
}

// TestShardRecordZeroAlloc is the AllocsPerRun==0 guard on the Pipeline
// per-record path: once the shard has seen a record mix (timers in the
// arena, histogram bins warm), replaying records allocates nothing.
func TestShardRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	p, origins, recs := steadyRecords()
	sh := p.newShard()
	// Warm-up: arena blocks, byID, cluster set and histogram bins all exist
	// after one pass; the steady state must then be allocation-free.
	for _, r := range recs {
		sh.record(r, origins, nil)
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, r := range recs {
			sh.record(r, origins, nil)
		}
	})
	if avg != 0 {
		t.Fatalf("shard.record allocated %.2f per replay in steady state, want 0", avg)
	}
}

// steadyRecords is a replayable record mix for the allocation guards: 32
// timers over two origins and three PIDs, user and kernel, armed with
// three timeouts and ended by expiry or cancelation, with the pipeline
// that folds it.
func steadyRecords() (Pipeline, []string, []trace.Record) {
	sOpts := DefaultScatterOptions()
	p := Pipeline{
		Values:        ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		Scatter:       &sOpts,
		OriginMinSets: 1,
	}
	origins := []string{"?", "kernel/writeback", "app/select"}
	recs := make([]trace.Record, 0, 1024)
	t0 := sim.Time(0)
	for i := 0; i < 512; i++ {
		id := uint64(i % 32)
		timeout := sim.Duration(1+i%3) * 250 * sim.Millisecond
		var flags trace.Flags
		if i%2 == 0 {
			flags = trace.FlagUser
		}
		recs = append(recs, trace.Record{
			T: t0, Op: trace.OpSet, TimerID: id, Timeout: int64(timeout),
			Origin: uint32(1 + i%2), PID: int32(i % 3), Flags: flags,
		})
		t0 += sim.Time(50 * sim.Millisecond)
		endOp := trace.OpExpire
		if i%4 == 0 {
			endOp = trace.OpCancel
		}
		recs = append(recs, trace.Record{
			T: t0, Op: endOp, TimerID: id, Origin: uint32(1 + i%2), PID: int32(i % 3), Flags: flags,
		})
	}
	return p, origins, recs
}

// TestShardFoldZeroAlloc is the AllocsPerRun==0 guard on the end-of-trace
// fold and classification: with the distinct-value scratch warmed (by a
// countdown timer far past inlineTvals) and every bin present, folding a
// shard into itself or into a merge output allocates nothing.
func TestShardFoldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	p := standardPipeline()
	b := wideTrace()
	sh, out := p.newShard(), p.newShard()
	for _, r := range b.Records() {
		sh.record(r, nil, b)
	}
	sh.fold()
	out.foldFrom(sh)
	cd := sh.timer(sh.byID[countdownID])
	for name, avg := range map[string]float64{
		"classify": testing.AllocsPerRun(100, func() { _ = sh.classify(cd) }),
		"fold":     testing.AllocsPerRun(20, sh.fold),
		"foldFrom": testing.AllocsPerRun(20, func() { out.foldFrom(sh) }),
	} {
		if avg != 0 {
			t.Errorf("%s allocated %.2f per run with a warmed scratch, want 0", name, avg)
		}
	}
}

// TestStreamTimerSize pins the per-timer footprint: the arena holds one
// streamTimer per timer identity, so the pending runs and the cached origin
// row must fit in the struct's old 280 bytes.
func TestStreamTimerSize(t *testing.T) {
	if got := unsafe.Sizeof(streamTimer{}); got > 280 {
		t.Fatalf("streamTimer is %d bytes, want ≤ 280", got)
	}
}

// TestClassifyWideTallies: the 32-bit closed-use tallies widen to int
// before classify and constantValue multiply them, so tallies near
// math.MaxInt32 still classify as their ratios say.
func TestClassifyWideTallies(t *testing.T) {
	const n = math.MaxInt32 - 1
	sh := standardPipeline().newShard()
	cases := []struct {
		name string
		tm   streamTimer
		want Class
	}{
		{"periodic", streamTimer{closed: n, expired: n, immediate: n}, ClassPeriodic},
		{"delay", streamTimer{closed: n, expired: n}, ClassDelay},
		{"timeout", streamTimer{closed: n, canceled: n, earlyCancels: n}, ClassTimeout},
		{"watchdog", streamTimer{closed: n, reset: n}, ClassWatchdog},
	}
	for _, tc := range cases {
		tc.tm.tv[0], tc.tm.ntv = tvalSlot{v: sim.Second, n: n}, 1
		if got := sh.classify(&tc.tm); got != tc.want {
			t.Errorf("%s with %d closed uses: classified %v, want %v", tc.name, n, got, tc.want)
		}
	}
}

// TestRunParallelLongRuns: on a trace where timers re-arm one value for
// long stretches — runs that break on a value change, on the user flag,
// and at the end of the trace — RunParallel at 1, 2 and 4 workers equals
// Run byte for byte.
func TestRunParallelLongRuns(t *testing.T) {
	p := standardPipeline()
	b := trace.NewBuffer(1 << 16)
	origins := []string{"kernel/tcp", "firefox/poll", "Xorg/select", "svc/wait"}
	t0 := sim.Time(0)
	for i := 0; i < 24_000; i++ {
		id := uint64(i % 64)
		// Each timer keeps one value for 60 armings, then moves on.
		timeout := sim.Duration(1+(i/64/60+int(id))%5) * 250 * sim.Millisecond
		var flags trace.Flags
		if id%2 == 1 || (id%4 == 2 && i > 12_000) {
			flags = trace.FlagUser // timers 2, 6, 10, … turn user-space halfway
		}
		origin := b.Origin(origins[id%4])
		b.Log(trace.Record{T: t0, Op: trace.OpSet, TimerID: id, Timeout: int64(timeout),
			Origin: origin, PID: int32(id % 3), Flags: flags})
		if i%3 != 0 {
			b.Log(trace.Record{T: t0 + sim.Time(timeout), Op: trace.OpExpire, TimerID: id,
				Origin: origin, PID: int32(id % 3), Flags: flags})
		}
		t0 += sim.Time(5 * sim.Millisecond)
	}
	serial, err := p.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	for _, workers := range []int{1, 2, 4} {
		rep, err := p.RunParallel(b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: report differs from Run:\n%s\n%s", workers, got, want)
		}
	}
}
