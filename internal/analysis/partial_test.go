package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// buildPartialStreams cuts wideTrace into nstreams per-producer streams with
// namespaced timer identities (as distinct hosts would produce), plus the
// origin table chunks reference. The oracle for any feeding state is a
// single Pipeline.Run over the streams' prefixes concatenated in stream
// order — exactly the offline-equivalence contract MergePartials documents.
func buildPartialStreams(tb testing.TB, nstreams int) (Pipeline, [][]trace.Record, []string) {
	tb.Helper()
	p := standardPipeline()
	b := wideTrace()
	recs := b.Records()
	var maxOrigin uint32
	for _, r := range recs {
		if r.Origin > maxOrigin {
			maxOrigin = r.Origin
		}
	}
	origins := make([]string, maxOrigin+1)
	for i := range origins {
		origins[i] = b.OriginName(uint32(i))
	}
	streams := make([][]trace.Record, nstreams)
	per := len(recs) / nstreams
	for s := 0; s < nstreams; s++ {
		lo, hi := s*per, (s+1)*per
		if s == nstreams-1 {
			hi = len(recs)
		}
		part := make([]trace.Record, hi-lo)
		copy(part, recs[lo:hi])
		for i := range part {
			part[i].TimerID |= uint64(s+1) << 48
		}
		streams[s] = part
	}
	return p, streams, origins
}

// oracleReport runs the plain single-shard pipeline over the concatenation
// of each stream's first prefix[s] records, re-interning origins the way a
// fresh Buffer would.
func oracleReport(tb testing.TB, p Pipeline, streams [][]trace.Record, origins []string, prefix []int) []byte {
	tb.Helper()
	total := 0
	for _, n := range prefix {
		total += n
	}
	b := trace.NewBuffer(total)
	for s, recs := range streams {
		for _, r := range recs[:prefix[s]] {
			r.Origin = b.Origin(origins[r.Origin])
			b.Log(r)
		}
	}
	rep, err := p.Run(b)
	if err != nil {
		tb.Fatal(err)
	}
	return reportBytes(tb, rep)
}

// TestPartialMergeMatchesRunInterleaved feeds three streams into three
// Partials in seeded-random interleavings with random chunk boundaries,
// merging mid-feed through one Merger: every Merge — intermediate or
// final — must be byte-identical to a single Run over the equivalent
// concatenated prefix, and merges must not disturb the live fold.
func TestPartialMergeMatchesRunInterleaved(t *testing.T) {
	const nstreams = 3
	p, streams, origins := buildPartialStreams(t, nstreams)
	full := make([]int, nstreams)
	for s := range streams {
		full[s] = len(streams[s])
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			parts := make([]*Partial, nstreams)
			pos := make([]int, nstreams)
			for s := range parts {
				parts[s] = p.NewPartial()
			}
			m := p.NewMerger()
			checked := 0
			for {
				var live []int
				for s := range streams {
					if pos[s] < len(streams[s]) {
						live = append(live, s)
					}
				}
				if len(live) == 0 {
					break
				}
				s := live[rng.Intn(len(live))]
				end := min(pos[s]+1+rng.Intn(500), len(streams[s]))
				parts[s].AddChunk(trace.Chunk{Records: streams[s][pos[s]:end], Origins: origins})
				pos[s] = end
				if rng.Intn(16) == 0 && checked < 4 {
					checked++
					got := reportBytes(t, m.Merge(parts))
					want := oracleReport(t, p, streams, origins, pos)
					if !bytes.Equal(got, want) {
						t.Fatalf("mid-feed merge at %v differs from oracle Run:\n%s\n%s", pos, got, want)
					}
				}
			}
			got := reportBytes(t, m.Merge(parts))
			want := oracleReport(t, p, streams, origins, full)
			if !bytes.Equal(got, want) {
				t.Fatalf("final merge differs from oracle Run:\n%s\n%s", got, want)
			}
		})
	}
}

// TestPartialAddSourceStreamMatchesRun pins the same equivalence with each
// Partial fed from a v2 StreamReader (the ingest path's source shape)
// rather than raw chunks, at a chunk size that straddles frames.
func TestPartialAddSourceStreamMatchesRun(t *testing.T) {
	const nstreams = 3
	p, streams, origins := buildPartialStreams(t, nstreams)
	parts := make([]*Partial, nstreams)
	full := make([]int, nstreams)
	for s, recs := range streams {
		full[s] = len(recs)
		var buf bytes.Buffer
		sw := trace.NewStreamWriterSize(&buf, 777)
		for _, r := range recs {
			r.Origin = sw.Origin(origins[r.Origin])
			sw.Log(r)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		sr, err := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		parts[s] = p.NewPartial()
		if err := parts[s].AddSource(sr); err != nil {
			t.Fatal(err)
		}
	}
	got := reportBytes(t, p.MergePartials(parts))
	want := oracleReport(t, p, streams, origins, full)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream-fed merge differs from oracle Run:\n%s\n%s", got, want)
	}
}

// TestPartialConcurrentFeedAndSnapshot feeds each stream from its own
// goroutine while another hammers one Merger's Merge. Under -race this
// audits the drain's and the fold's locking; the final merged report must
// still equal the oracle, since per-stream order is preserved no matter
// how feeds and drains interleave across streams.
func TestPartialConcurrentFeedAndSnapshot(t *testing.T) {
	const nstreams = 3
	p, streams, origins := buildPartialStreams(t, nstreams)
	parts := make([]*Partial, nstreams)
	full := make([]int, nstreams)
	for s := range parts {
		parts[s] = p.NewPartial()
		full[s] = len(streams[s])
	}
	m := p.NewMerger()
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			recs := streams[s]
			for lo := 0; lo < len(recs); lo += 512 {
				hi := min(lo+512, len(recs))
				parts[s].AddChunk(trace.Chunk{Records: recs[lo:hi], Origins: origins})
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			_ = m.Merge(parts)
		}
	}()
	wg.Wait()
	got := reportBytes(t, m.Merge(parts))
	want := oracleReport(t, p, streams, origins, full)
	if !bytes.Equal(got, want) {
		t.Fatalf("concurrent-fed merge differs from oracle Run:\n%s\n%s", got, want)
	}
}

// TestPartialStreamsReachWideTimers pins the fixture the merge tests share:
// every stream cut carries a countdown timer spilled far past inlineTvals
// and a timer whose PID goes A→B→A, so the merges above exercise the
// distinct-value sort and the per-timer cluster key.
func TestPartialStreamsReachWideTimers(t *testing.T) {
	p, streams, origins := buildPartialStreams(t, 3)
	for s, recs := range streams {
		pa := p.NewPartial()
		pa.AddChunk(trace.Chunk{Records: recs, Origins: origins})
		ns := uint64(s+1) << 48
		idx, ok := pa.sh.byID[countdownID|ns]
		if !ok {
			t.Fatalf("stream %d: no countdown timer", s)
		}
		if cd := pa.sh.timer(idx); int(cd.ntv)+cd.tvMore.len() < 1000 {
			t.Errorf("stream %d: countdown timer has %d distinct values, want ≥ 1000", s, int(cd.ntv)+cd.tvMore.len())
		}
		var pids []int32
		for _, r := range recs {
			if r.TimerID == pidHopID|ns && (len(pids) == 0 || pids[len(pids)-1] != r.PID) {
				pids = append(pids, r.PID)
			}
		}
		if len(pids) < 3 || pids[0] == pids[1] || pids[0] != pids[2] {
			t.Errorf("stream %d: PID-hopping timer's PID runs are %v, want A→B→A", s, pids)
		}
	}
}

// flipID is the timer withFlipTimer adds to every stream: one timeout value
// re-armed throughout, kernel-flagged for its first flipAfter armings and
// user-flagged after, so its pending runs break on the user flag alone.
const (
	flipID    = 92
	flipAfter = 24
)

// withFlipTimer copies streams with a flipID arming (namespaced per stream)
// inserted after every 200th record, at that record's instant.
func withFlipTimer(streams [][]trace.Record, origins []string) [][]trace.Record {
	origin := uint32(slices.Index(origins, "svc/wait"))
	out := make([][]trace.Record, len(streams))
	for s, recs := range streams {
		ns := uint64(s+1) << 48
		sets := 0
		for i, r := range recs {
			out[s] = append(out[s], r)
			if i%200 != 199 {
				continue
			}
			var flags trace.Flags
			if sets >= flipAfter {
				flags = trace.FlagUser
			}
			out[s] = append(out[s], trace.Record{
				T: r.T, Op: trace.OpSet, TimerID: flipID | ns, Timeout: int64(500 * sim.Millisecond),
				Origin: origin, PID: 7, Flags: flags,
			})
			sets++
		}
	}
	return out
}

// TestPartialPrefixOracle feeds the merge-test streams, plus a timer whose
// user flag flips mid-run, chunk by chunk in rotation, and merges after
// every chunk through one Merger: each Merge must equal one Run over the
// streams' concatenated prefixes. A merge adds every pending run into its
// overlay without clearing it, and drains only settled bins into the
// base, so a merge repeated over runs that are still pending — the flip
// timer's runs, the countdown's, the PID hopper's — must neither lose nor
// double-count one.
func TestPartialPrefixOracle(t *testing.T) {
	const nstreams = 3
	p, streams, origins := buildPartialStreams(t, nstreams)
	streams = withFlipTimer(streams, origins)
	rng := rand.New(rand.NewSource(3))
	parts := make([]*Partial, nstreams)
	for s := range parts {
		parts[s] = p.NewPartial()
	}
	m := p.NewMerger()
	pos := make([]int, nstreams)
	merges, longRuns := 0, 0
	for done := 0; done < nstreams; {
		done = 0
		for s := range streams {
			if pos[s] == len(streams[s]) {
				done++
				continue
			}
			end := min(pos[s]+1+rng.Intn(3000), len(streams[s]))
			parts[s].AddChunk(trace.Chunk{Records: streams[s][pos[s]:end], Origins: origins})
			pos[s] = end
			got := reportBytes(t, m.Merge(parts))
			want := oracleReport(t, p, streams, origins, pos)
			if !bytes.Equal(got, want) {
				t.Fatalf("merge %d at %v differs from oracle Run:\n%s\n%s", merges, pos, got, want)
			}
			merges++
			if idx, ok := parts[s].sh.byID[flipID|uint64(s+1)<<48]; ok && parts[s].sh.timer(idx).vrun[0].n > 1 {
				longRuns++
			}
		}
	}
	if merges < 20 || longRuns < 10 {
		t.Fatalf("%d merges, %d with the flip timer's run pending past one arming; want ≥ 20 and ≥ 10", merges, longRuns)
	}
}

// TestMergePartialsCountsTimerIDCollisions: merging Partials whose streams
// share timer IDs reports each shared ID once in TimerIDCollisions;
// namespaced streams report none.
func TestMergePartialsCountsTimerIDCollisions(t *testing.T) {
	const nstreams = 3
	p, streams, origins := buildPartialStreams(t, nstreams)
	merge := func(streams [][]trace.Record) *Report {
		parts := make([]*Partial, len(streams))
		for s, recs := range streams {
			parts[s] = p.NewPartial()
			parts[s].AddChunk(trace.Chunk{Records: recs, Origins: origins})
		}
		return p.MergePartials(parts)
	}
	if got := merge(streams).TimerIDCollisions; got != 0 {
		t.Fatalf("namespaced streams: %d collisions, want 0", got)
	}

	// Strip the namespace from the first two streams: every ID they share
	// collides, and the third stream's IDs stay apart.
	shared := make([][]trace.Record, nstreams)
	inStream := make([]map[uint64]bool, 2)
	for s, recs := range streams {
		shared[s] = slices.Clone(recs)
		if s >= 2 {
			continue
		}
		inStream[s] = map[uint64]bool{}
		for i := range shared[s] {
			shared[s][i].TimerID &= 1<<48 - 1
			inStream[s][shared[s][i].TimerID] = true
		}
	}
	want := 0
	for id := range inStream[0] {
		if inStream[1][id] {
			want++
		}
	}
	if want < 100 {
		t.Fatalf("fixture: streams 0 and 1 share only %d timer IDs", want)
	}
	if got := merge(shared).TimerIDCollisions; got != want {
		t.Fatalf("shared IDs: %d collisions, want %d", got, want)
	}
}
