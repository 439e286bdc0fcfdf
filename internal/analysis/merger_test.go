package analysis

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// shardSnapshot is a deep copy of everything a shard's merge reads, for
// comparing a Merger's base before and after a merge.
type shardSnapshot struct {
	Sum      Summary
	End      sim.Time
	Shares   ClassShares
	Clusters map[cluster]bool
	Pts      []SeriesPoint
	Values   []map[int64]int
	Totals   []int
	Scatter  map[scatterKey]ScatterPoint
	Origins  map[string]originSnapshot
}

// originSnapshot is a deep copy of one originStats.
type originSnapshot struct {
	Values       map[int64]int
	Class        [nClasses]int
	Sets, Timers int
}

func snapshotShard(s *shard) shardSnapshot {
	snap := shardSnapshot{
		Sum: s.sum, End: s.end, Shares: s.shares,
		Clusters: maps.Clone(s.clusters), Pts: slices.Clone(s.pts),
		Scatter: map[scatterKey]ScatterPoint{}, Origins: map[string]originSnapshot{},
	}
	for _, a := range s.vaccs {
		snap.Values = append(snap.Values, a.counts.toMap())
		snap.Totals = append(snap.Totals, a.total)
	}
	for k, p := range s.scatter.agg {
		snap.Scatter[k] = *p
	}
	for name, st := range s.origins.byOrigin {
		snap.Origins[name] = originSnapshot{Values: st.values.toMap(),
			Class: st.class, Sets: st.sets, Timers: st.timers}
	}
	return snap
}

// TestMergerRemergeIsStable: a second Merge with no records fed since the
// first returns the same bytes and leaves the base exactly as it was,
// mid-stream (pending runs and trailing uses live) and after the last
// record alike.
func TestMergerRemergeIsStable(t *testing.T) {
	const nstreams = 3
	p, streams, origins := buildPartialStreams(t, nstreams)
	parts := make([]*Partial, nstreams)
	for s := range parts {
		parts[s] = p.NewPartial()
	}
	m := p.NewMerger()
	fed := make([]int, nstreams)
	for _, frac := range []int{3, 1} { // a third of every stream, then all
		for s, recs := range streams {
			end := len(recs) / frac
			parts[s].AddChunk(trace.Chunk{Records: recs[fed[s]:end], Origins: origins})
			fed[s] = end
		}
		first := reportBytes(t, m.Merge(parts))
		base := snapshotShard(m.base)
		if again := reportBytes(t, m.Merge(parts)); !bytes.Equal(again, first) {
			t.Fatalf("1/%d fed: second merge differs from the first:\n%s\n%s", frac, again, first)
		}
		if !reflect.DeepEqual(snapshotShard(m.base), base) {
			t.Fatalf("1/%d fed: a merge with no new records changed the base", frac)
		}
	}
}

// TestMergerTrailingUseLeavesNoZeroKey: a view counts a timer's trailing
// pending use under the user flag the timer has so far; when a later
// record flips the flag, the use resolves under the other bin. The bin the
// earlier view showed must then vanish, with MinSharePercent 0, instead of
// staying behind as a zero-count entry, and no accumulator of the base or
// the drained Partial may hold a zero count.
func TestMergerTrailingUseLeavesNoZeroKey(t *testing.T) {
	p := Pipeline{Values: ValueOptions{JiffyBinKernel: true}, OriginMinSets: 1}
	origins := []string{"svc/wait"}
	ms := func(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }
	first := []trace.Record{
		{T: 0, Op: trace.OpSet, TimerID: 1, Timeout: int64(ms(100))},
		{T: sim.Time(ms(100)), Op: trace.OpExpire, TimerID: 1},
		{T: sim.Time(ms(200)), Op: trace.OpSet, TimerID: 1, Timeout: int64(ms(250))},
	}
	second := []trace.Record{
		{T: sim.Time(ms(450)), Op: trace.OpExpire, TimerID: 1, Flags: trace.FlagUser},
		{T: sim.Time(ms(500)), Op: trace.OpSet, TimerID: 1, Timeout: int64(ms(100)), Flags: trace.FlagUser},
	}
	kernelBin, jiffies := p.Values.binAttrs(false, ms(250))
	pa := p.NewPartial()
	m := p.NewMerger()
	pa.AddChunk(trace.Chunk{Records: first, Origins: origins})
	rep := m.Merge([]*Partial{pa})
	if !slices.ContainsFunc(rep.Values, func(e ValueEntry) bool { return e.Jiffies == jiffies && e.Value == kernelBin }) {
		t.Fatalf("fixture: the trailing kernel use (%v, %d jiffies) is not in the first view %+v", kernelBin, jiffies, rep.Values)
	}
	pa.AddChunk(trace.Chunk{Records: second, Origins: origins})
	rep = m.Merge([]*Partial{pa})
	for _, e := range rep.Values {
		if e.Count == 0 {
			t.Errorf("second view holds a zero-count entry %+v", e)
		}
		if e.Jiffies == jiffies && e.Value == kernelBin {
			t.Errorf("second view still holds the resolved use's kernel bin %+v", e)
		}
	}
	b := trace.NewBuffer(len(first) + len(second))
	for _, r := range append(slices.Clone(first), second...) {
		r.Origin = b.Origin(origins[r.Origin])
		b.Log(r)
	}
	want, err := p.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, rep), reportBytes(t, want); !bytes.Equal(got, want) {
		t.Fatalf("second view differs from Run:\n%s\n%s", got, want)
	}
	for _, sh := range []*shard{m.base, pa.sh} {
		for _, a := range sh.vaccs {
			for _, e := range a.counts.entries {
				if e.n == 0 {
					t.Errorf("value key %d holds a zero count", e.key)
				}
			}
		}
		for name, st := range sh.origins.byOrigin {
			for _, e := range st.values.entries {
				if e.n == 0 {
					t.Errorf("origin %q value %v holds a zero count", name, sim.Duration(e.key))
				}
			}
		}
	}
}

// TestMergerOwnsItsPartials: a Partial drained by one Merger panics when
// given to another, and a Merge that drops or repeats a Partial panics too.
// A rejected call panics before it drains or claims anything, so the
// Merger's base and an innocent Partial in that call stay intact: the
// Partial still merges into a view equal to a one-shot merge.
func TestMergerOwnsItsPartials(t *testing.T) {
	p, streams, origins := buildPartialStreams(t, 3)
	feed := func() []*Partial {
		parts := make([]*Partial, len(streams))
		for s, recs := range streams {
			parts[s] = p.NewPartial()
			parts[s].AddChunk(trace.Chunk{Records: recs, Origins: origins})
		}
		return parts
	}
	parts := feed()
	a, b, c := parts[0], parts[1], parts[2]
	m := p.NewMerger()
	first := reportBytes(t, m.Merge([]*Partial{a, b}))
	base := snapshotShard(m.base)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	// c, never merged, comes first in each call, so every call claims it
	// before it finds the fault.
	mustPanic("second Merger", func() { p.NewMerger().Merge([]*Partial{c, a}) })
	mustPanic("MergePartials of drained Partials", func() { p.MergePartials([]*Partial{c, a, b}) })
	mustPanic("dropped Partial", func() { m.Merge([]*Partial{c, a}) })
	mustPanic("repeated new Partial", func() { m.Merge([]*Partial{c, a, b, c}) })
	mustPanic("repeated drained Partial", func() { m.Merge([]*Partial{c, a, b, b}) })
	mustPanic("dropped and repeated Partial", func() { m.Merge([]*Partial{c, a, a}) })
	if !reflect.DeepEqual(snapshotShard(m.base), base) {
		t.Fatal("a rejected Merge changed the base")
	}
	if again := reportBytes(t, m.Merge([]*Partial{a, b})); !bytes.Equal(again, first) {
		t.Fatalf("after the rejected calls the view differs:\n%s\n%s", again, first)
	}
	got := reportBytes(t, m.Merge([]*Partial{a, b, c}))
	if want := reportBytes(t, p.MergePartials(feed())); !bytes.Equal(got, want) {
		t.Fatalf("the innocent Partial merged after the rejected calls differs from a one-shot merge:\n%s\n%s", got, want)
	}
}

// TestMergerDrainedAddChunkZeroAlloc: draining clears a Partial's maps
// without dropping their capacity and zeroes its scatter bins and origin
// rows in place, so a warm Partial folds a chunk right after a Merge with
// no allocation. Merge itself allocates, so testing.AllocsPerRun cannot
// measure the AddChunk alone; the test counts around each AddChunk the way
// AllocsPerRun does, at GOMAXPROCS 1, and takes the fewest over repeats,
// so a stray allocation elsewhere in the process during one window does
// not fail it while an allocation in every AddChunk still does.
func TestMergerDrainedAddChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	p, origins, recs := steadyRecords()
	p.SeriesProcess = "app"
	c := trace.Chunk{Records: recs, Origins: origins}
	pa := p.NewPartial()
	m := p.NewMerger()
	parts := []*Partial{pa}
	for i := 0; i < 2; i++ {
		pa.AddChunk(c)
		m.Merge(parts)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const merges = 10
	var before, after runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for i := 0; i < merges; i++ {
		m.Merge(parts)
		runtime.ReadMemStats(&before)
		pa.AddChunk(c)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("AddChunk after a drain allocated at least %d times after each of %d merges, want 0", fewest, merges)
	}
}

// sortedMedian is the reference weightedMedian replaced: sort the values,
// then walk the cumulative counts.
func sortedMedian(vals []tvalSlot, n int) sim.Duration {
	vals = slices.Clone(vals)
	slices.SortFunc(vals, func(a, b tvalSlot) int { return cmp.Compare(a.v, b.v) })
	cum := 0
	for _, vc := range vals {
		cum += vc.n
		if n/2 < cum {
			return vc.v
		}
	}
	return 0
}

// TestWeightedMedianMatchesSort is the differential test of the
// quickselect median against the sort it replaced: ties on the rank
// boundary, even and odd sample counts, one value, all-distinct
// countdowns in both orders, organ-pipe and random orders, and counts
// near MaxInt32.
func TestWeightedMedianMatchesSort(t *testing.T) {
	slots := func(counts ...int) []tvalSlot {
		vs := make([]tvalSlot, len(counts))
		for i, c := range counts {
			vs[i] = tvalSlot{v: sim.Duration(10 * (i + 1)), n: c}
		}
		return vs
	}
	countdown := func(k int, up bool) []tvalSlot {
		vs := make([]tvalSlot, k)
		for i := range vs {
			v := k - i
			if up {
				v = i + 1
			}
			vs[i] = tvalSlot{v: sim.Duration(v) * sim.Millisecond, n: 1}
		}
		return vs
	}
	// Organ pipe: even values rising, then odd values falling.
	organ := countdown(1001, true)
	for i := range organ {
		v := 2 * i
		if i > len(organ)/2 {
			v = 2*(len(organ)-1-i) + 1
		}
		organ[i].v = sim.Duration(v) * sim.Microsecond
	}
	cases := map[string][]tvalSlot{
		"single":          slots(1),
		"single-heavy":    slots(7),
		"pair-tie":        slots(2, 2),
		"pair-odd":        slots(2, 3),
		"boundary-tie":    slots(3, 3, 3, 3),
		"boundary-odd":    slots(1, 1, 1, 1, 1),
		"heavy-first":     slots(9, 1, 1, 1),
		"heavy-last":      slots(1, 1, 1, 9),
		"countdown-down":  countdown(4097, false),
		"countdown-up":    countdown(4096, true),
		"organ-pipe":      organ,
		"near-maxint32":   slots(math.MaxInt32, math.MaxInt32-1, math.MaxInt32, 1),
		"maxint32-single": slots(math.MaxInt32),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vs := make([]tvalSlot, 1+rng.Intn(64))
		for j := range vs {
			vs[j] = tvalSlot{v: sim.Duration(j*7 + rng.Intn(7)), n: 1 + rng.Intn(4)}
		}
		rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
		cases[fmt.Sprintf("random-%d", i)] = vs
	}
	for name, vs := range cases {
		n := 0
		for _, vc := range vs {
			n += vc.n
		}
		want := sortedMedian(vs, n)
		if got := weightedMedian(slices.Clone(vs), n); got != want {
			t.Errorf("%s (k=%d, n=%d): weightedMedian %v, sorted walk %v", name, len(vs), n, got, want)
		}
	}
}

// FuzzMergerViews is the differential fuzz of the incremental merge: three
// streams are fed to three Partials in fuzz-chosen chunks, one Merger
// merges at fuzz-chosen points, and every view must equal one Run over the
// streams' concatenated prefixes. Each op byte b feeds stream b%4 the next
// (b/4)*7+1 records, or merges when b%4 is 3. The streams are the merge
// tests' fixture cut to 1,500 records each, so an input runs in
// milliseconds.
func FuzzMergerViews(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3})
	f.Add([]byte{255, 3, 0, 0, 0, 3, 129, 3, 130, 130, 3, 252, 253, 254, 3})

	const nstreams = 3
	p, streams, origins := buildPartialStreams(f, nstreams)
	for s := range streams {
		streams[s] = streams[s][:min(len(streams[s]), 1500)]
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			return
		}
		parts := make([]*Partial, nstreams)
		for s := range parts {
			parts[s] = p.NewPartial()
		}
		m := p.NewMerger()
		pos := make([]int, nstreams)
		check := func(what string) {
			got := reportBytes(t, m.Merge(parts))
			if want := oracleReport(t, p, streams, origins, pos); !bytes.Equal(got, want) {
				t.Fatalf("%s at %v differs from Run:\n%.300s\n%.300s", what, pos, got, want)
			}
		}
		feed := func(s, n int) {
			end := min(pos[s]+n, len(streams[s]))
			parts[s].AddChunk(trace.Chunk{Records: streams[s][pos[s]:end], Origins: origins})
			pos[s] = end
		}
		views := 0
		for _, b := range ops {
			if s := int(b % 4); s < nstreams {
				feed(s, int(b/4)*7+1)
			} else if views < 8 {
				views++
				check("view")
			}
		}
		for s := range streams {
			feed(s, len(streams[s]))
		}
		check("final view")
	})
}
