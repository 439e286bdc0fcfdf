package analysis

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Pipeline computes every per-workload artifact of the paper's evaluation in
// a single streaming pass over a trace.Source: the Table 1/2 summary, class
// shares (Figure 2), up to three value histograms (Figures 3, 5, 6, 7), the
// expiry/cancelation scatter (Figures 8-11), the per-process set series
// (Figure 4), and the origin table (Table 3). Memory is bounded by the
// number of distinct timer identities (each contributes a fixed-size
// accumulator) plus the size of the report itself — never by trace length —
// so a StreamReader over a file larger than RAM analyses in constant memory.
//
// The per-use folds reuse the same accumulators behind CommonValues,
// Scatter, SetSeries, ComputeClassShares and OriginTable, and the fold
// points are chosen so a pipeline run is byte-for-byte equivalent to
// reconstructing full lifecycles and calling those functions independently.
// The one assumption the streaming fold adds is that a timer's user flag
// and origin are constant across its records (true of every facility in
// this repo; crosscheck tests verify it on real workload traces).
//
// The fold itself lives in the shard type: Run drives one shard over the
// whole record stream; RunParallel partitions timer identities across many
// shards and merges them, producing an identical Report at any worker count
// (see parallel.go for why).
type Pipeline struct {
	// Values configures the headline histogram (Figures 3 and 7).
	Values ValueOptions
	// ValuesFiltered, if non-nil, adds the Figure 5 histogram (typically
	// X/icewm filtered with countdowns collapsed).
	ValuesFiltered *ValueOptions
	// ValuesUser, if non-nil, adds the Figure 6 histogram (user-space only).
	ValuesUser *ValueOptions
	// Scatter, if non-nil, adds the Figures 8-11 aggregation.
	Scatter *ScatterOptions
	// SeriesProcess, if non-empty, adds the Figure 4 set series for that
	// process.
	SeriesProcess string
	// OriginMinSets, if positive, adds the Table 3 origin rows with that
	// minimum set count.
	OriginMinSets int
}

// Report is everything one Pipeline run produced.
type Report struct {
	// Summary is the Table 1/2 column, counted over the raw record stream.
	Summary Summary
	// End is the largest record timestamp seen (zero for an empty trace).
	End sim.Time
	// Shares is the Figure 2 usage-pattern tally.
	Shares ClassShares
	// Values/ValuesFiltered/ValuesUser are the requested histograms with
	// their total (pre-threshold) sample counts.
	Values              []ValueEntry
	ValuesTotal         int
	ValuesFiltered      []ValueEntry
	ValuesFilteredTotal int
	ValuesUser          []ValueEntry
	ValuesUserTotal     int
	// Scatter is the Figures 8-11 aggregation (nil unless requested).
	Scatter []ScatterPoint
	// Series is the Figure 4 set series (nil unless requested).
	Series []SeriesPoint
	// Origins is the Table 3 listing (nil unless requested).
	Origins []OriginRow
	// TimerIDCollisions is the number of timer IDs MergePartials found in
	// more than one Partial, which the merge contract rules out (zero for
	// Run and RunParallel). No JSON section renders it; the live service
	// reports it on /api/metrics.
	TimerIDCollisions int `json:"-"`
}

// tvalSlot is one (timeout value, count) pair of a timer's closed-use
// histogram.
type tvalSlot struct {
	v sim.Duration
	n int
}

// inlineTvals is the number of distinct timeout values a timer tracks
// without spilling to a countTable. Measured per timer on the paper's
// workloads: every Vista timer uses at most 3 distinct values except on
// the desktop trace (up to 578), while a Linux select-countdown timer
// re-armed with its remaining time reaches 15,080 (seed 1, 300 s). Four
// inline slots cover the common case; the spill table and constantValue's
// O(k) weighted selection cover the countdowns.
const inlineTvals = 4

// streamTimer is the bounded per-timer state the streaming pass keeps in
// place of a full TimerLife: classification tallies, the armed use, the
// previous closed use (for immediate-reset pairing), the pending use whose
// countdown-chain membership the next arming decides, and the pending runs
// that batch its histogram samples. Everything else folds into the shared
// accumulators as uses open and close.
//
// streamTimers live in a shard's block arena and are never allocated
// individually; the zero value is the fresh state. Fields are ordered so
// the flags pack at the end: the struct is 240 bytes
// (TestStreamTimerSize pins it at most 280).
type streamTimer struct {
	originName string

	// id is the timer's identity, so a Merger can check the timers a
	// Partial created since the last merge for IDs another Partial holds.
	id uint64

	// The origin ID and PID of this timer's last record (valid while
	// hasCluster is set), so record resolves and inserts its (origin name,
	// PID) cluster key only when they change.
	lastOrigin uint32
	lastPID    int32

	// origin is this timer's Table 3 row in the shard's origin table,
	// looked up under the current originName when its first run of
	// armings flushes (nil before that, and whenever the shard keeps no
	// origin table).
	origin *originStats

	// The most recently armed use. While open is set it is the armed use;
	// after it closes it stays pending (hasPend) until the next arming
	// resolves its countdown-chain membership, or the fold does.
	pendAt      sim.Time
	pendTimeout sim.Duration

	// End of the previous closed use, for the expiry→re-set pairing.
	prevEndAt sim.Time

	// Tallies over closed uses — exactly the uses Classify sees after
	// dropping a trailing dangling one. They are 32-bit to keep the struct
	// small, so classify and constantValue widen them to int before any
	// arithmetic; one timer identity would need 2^31 closed uses to
	// overflow them. Timeout values count into inline slots, spilling to
	// tvMore, allocated at the first spill, only past inlineTvals distinct
	// values.
	closed       int32
	expired      int32
	canceled     int32
	reset        int32
	earlyCancels int32
	immediate    int32
	tv           [inlineTvals]tvalSlot
	tvMore       *countTable

	// Pending runs of equal histogram samples: vrun[i] feeds the shard's
	// i-th value accumulator, orun the origin row. A run reaches its table
	// only when the next sample differs (see valueRun) or at foldFrom.
	vrun [maxValueAccs]valueRun
	orun valueRun

	ntv     uint8
	prevEnd EndKind
	user    bool
	open    bool
	// candImmediate marks an open use whose arming followed the previous
	// use's expiry within the jitter tolerance; it counts toward the
	// periodic signature only if this use closes (matching Classify's
	// truncated-slice semantics).
	candImmediate bool
	hasPrev       bool
	hasPend       bool
	// fromPrev records whether the pending use continued a countdown step
	// from its predecessor.
	fromPrev bool
	// hasUse reports at least one arming ever (gates the Figure 2 tally).
	hasUse bool
	// hasCluster marks lastOrigin/lastPID as set and resolved to a known
	// name; an ID that resolved to "?" is resolved again at the next
	// record, in case a later chunk's origin table names it.
	hasCluster bool
}

// maxValueAccs is the most value accumulators a shard runs: Values,
// ValuesFiltered and ValuesUser.
const maxValueAccs = 3

// pend returns the most recently armed use as a dangling Use.
func (t *streamTimer) pend() Use {
	return Use{SetAt: t.pendAt, Timeout: t.pendTimeout}
}

// addTval counts one closed-use timeout value.
func (t *streamTimer) addTval(v sim.Duration) {
	for i := 0; i < int(t.ntv); i++ {
		if t.tv[i].v == v {
			t.tv[i].n++
			return
		}
	}
	if int(t.ntv) < inlineTvals {
		t.tv[t.ntv] = tvalSlot{v: v, n: 1}
		t.ntv++
		return
	}
	if t.tvMore == nil {
		t.tvMore = new(countTable)
	}
	t.tvMore.add(int64(v), 1)
}

// Arena geometry: timers are stored in fixed-size blocks so pointers stay
// stable as the table grows and a million-timer trace costs thousands of
// allocations instead of millions.
const (
	timerBlockShift = 9 // 512 timers per block
	timerBlockSize  = 1 << timerBlockShift
	timerBlockMask  = timerBlockSize - 1
)

// timerBlock is one arena block.
type timerBlock [timerBlockSize]streamTimer

// timerBlocks recycles arena blocks between analyses: Run and RunParallel
// give their shards' blocks back, cleared, once the report is built, and
// newTimer takes from here before allocating. It holds *timerBlock, so a
// Put boxes nothing. Partials keep their blocks for their whole life.
var timerBlocks sync.Pool

// arenaBlocksMade counts the blocks newTimer had to allocate because the
// recycler was empty.
var arenaBlocksMade atomic.Int64

// cluster keys the Section 3.3 (origin, thread) clustering. The key is the
// resolved origin name, not the numeric ID: IDs are interning-order
// artifacts of one stream, so merging Partials fed by different producers
// would otherwise split (or fuse) clusters that a single run over the
// concatenated streams counts as one. Within one source the two keyings are
// identical — interning makes name and ID one-to-one — so record watches
// a timer's (ID, PID) for a change and resolves the name only then.
type cluster struct {
	origin string
	pid    int32
}

// shard is the streaming fold over one subset of timer identities. Run uses
// a single shard for everything; RunParallel gives each worker its own and
// merges. All of a shard's per-use folds go to shard-local accumulators, so
// shards never share mutable state.
type shard struct {
	cfg Pipeline

	values, valuesF, valuesU *valueAcc
	vaccs                    []*valueAcc
	scatter                  *scatterAcc
	origins                  *originAcc
	seriesProcess            string
	pts                      []SeriesPoint

	sum      Summary // additive fields; Timers/Concurrency filled later
	end      sim.Time
	shares   ClassShares
	clusters map[cluster]bool

	// Timer table: creation-order arena blocks indexed through byID, with
	// idCache in front of the map.
	byID    map[uint64]int32
	blocks  []*timerBlock
	nTimers int
	idCache [idCacheSize]idCacheEntry

	// openCount/maxOpen track pending-timer concurrency; exact only when
	// the shard owns every timer (Run). RunParallel tracks concurrency
	// globally instead and ignores these.
	openCount, maxOpen int

	tvScratch []tvalSlot
}

// idCacheBits sizes the direct-mapped timer-ID cache in front of
// shard.byID: 512 entries, 8 KiB per shard. A timer's slot is the top
// idCacheBits of hashTimerID, not the low bits RunParallel's shard
// modulus uses, so every shard of a parallel run spreads over all slots.
const (
	idCacheBits = 9
	idCacheSize = 1 << idCacheBits
)

// idCacheEntry maps one timer ID to its arena index plus one; zero marks
// an empty entry, so the zero cache is empty.
type idCacheEntry struct {
	id  uint64
	idx int32
}

func (p Pipeline) newShard() *shard {
	s := &shard{
		cfg:           p,
		seriesProcess: p.SeriesProcess,
		clusters:      make(map[cluster]bool),
		byID:          make(map[uint64]int32),
	}
	s.values = newValueAcc(p.Values)
	s.vaccs = append(s.vaccs, s.values)
	if p.ValuesFiltered != nil {
		s.valuesF = newValueAcc(*p.ValuesFiltered)
		s.vaccs = append(s.vaccs, s.valuesF)
	}
	if p.ValuesUser != nil {
		s.valuesU = newValueAcc(*p.ValuesUser)
		s.vaccs = append(s.vaccs, s.valuesU)
	}
	if p.Scatter != nil {
		s.scatter = newScatterAcc(*p.Scatter)
	}
	if p.OriginMinSets > 0 {
		s.origins = newOriginAcc(p.OriginMinSets)
	}
	return s
}

func (s *shard) timer(idx int32) *streamTimer {
	return &s.blocks[idx>>timerBlockShift][idx&timerBlockMask]
}

// lookup finds or creates the arena slot of a timer that missed the ID
// cache, and installs it in the cache entry e; the cold path of record.
func (s *shard) lookup(id uint64, e *idCacheEntry, origins []string, src trace.Source, origin uint32) *streamTimer {
	idx, ok := s.byID[id]
	if !ok {
		idx = s.newTimer(id, resolveOrigin(origins, src, origin))
	}
	*e = idCacheEntry{id: id, idx: idx + 1}
	return s.timer(idx)
}

// newTimer allocates the next arena slot and returns its index.
func (s *shard) newTimer(id uint64, name string) int32 {
	if s.nTimers>>timerBlockShift == len(s.blocks) {
		b, _ := timerBlocks.Get().(*timerBlock)
		if b == nil {
			b = new(timerBlock)
			arenaBlocksMade.Add(1)
		}
		s.blocks = append(s.blocks, b)
	}
	idx := int32(s.nTimers)
	s.nTimers++
	s.byID[id] = idx
	t := s.timer(idx)
	t.originName, t.id = name, id
	return idx
}

// releaseArena clears the shard's used arena slots and gives its blocks to
// the recycler. The shard must not record or fold afterwards.
func (s *shard) releaseArena() {
	for i, b := range s.blocks {
		clear(b[:min(timerBlockSize, s.nTimers-i*timerBlockSize)])
		timerBlocks.Put(b)
	}
	s.blocks, s.nTimers = nil, 0
	clear(s.idCache[:])
}

// resolveOrigin resolves an origin ID through a chunk snapshot when one is
// available (origins non-nil), else through the source.
func resolveOrigin(origins []string, src trace.Source, id uint32) string {
	if origins != nil {
		if int(id) < len(origins) {
			return origins[id]
		}
		return "?"
	}
	return src.OriginName(id)
}

// record folds one trace record. origins is the chunk's origin snapshot
// (src is only consulted when it is nil — the non-chunked fallback).
//
//lint:allocfree per-record hot path; timer state comes from the block arena through the ID cache, histogram samples batch in per-timer pending runs, and the count tables and maps behind them are warm (TestShardRecordZeroAlloc)
func (s *shard) record(r trace.Record, origins []string, src trace.Source) {
	var t *streamTimer
	if e := &s.idCache[hashTimerID(r.TimerID)>>(64-idCacheBits)]; e.idx != 0 && e.id == r.TimerID {
		t = s.timer(e.idx - 1)
	} else {
		t = s.lookup(r.TimerID, e, origins, src, r.Origin)
	}
	if r.Flags&trace.FlagUser != 0 {
		t.user = true
	}
	if t.originName == "?" {
		s.rename(t, resolveOrigin(origins, src, r.Origin))
	}
	s.sum.Accesses++
	if !t.hasCluster || r.Origin != t.lastOrigin || r.PID != t.lastPID {
		name := resolveOrigin(origins, src, r.Origin)
		s.clusters[cluster{name, r.PID}] = true
		t.lastOrigin, t.lastPID, t.hasCluster = r.Origin, r.PID, name != "?"
	}
	if r.IsUser() {
		s.sum.UserSpace++
	} else {
		s.sum.Kernel++
	}
	if r.T > s.end {
		s.end = r.T
	}
	switch r.Op {
	case trace.OpInit:
		// Initialization only; no interval.
	case trace.OpSet, trace.OpWait:
		s.sum.Set++
		if t.open {
			s.closeUse(t, r.T, EndReset, false)
		} else {
			s.openCount++
			if s.openCount > s.maxOpen {
				s.maxOpen = s.openCount
			}
		}
		u := Use{SetAt: r.T, Timeout: sim.Duration(r.Timeout)}
		t.candImmediate = t.hasPrev && t.prevEnd == EndExpired &&
			r.T.Sub(t.prevEndAt) <= JitterTolerance
		if t.hasPend {
			step := isCountdownStep(t.pend(), u)
			s.resolve(&t.vrun, t, t.pendTimeout, t.fromPrev || step, step && !t.fromPrev)
			t.fromPrev = step
		} else {
			t.fromPrev = false
		}
		t.pendAt, t.pendTimeout, t.hasPend = u.SetAt, u.Timeout, true
		if s.seriesProcess != "" && processOf(t.originName) == s.seriesProcess {
			s.pts = append(s.pts, SeriesPoint{T: u.SetAt, V: u.Timeout})
		}
		if s.origins != nil {
			if done := t.orun.push(t.user, u.Timeout); done.n != 0 {
				s.flushOrigin(t, done)
			}
		}
		t.hasUse = true
		t.open = true
	case trace.OpCancel:
		s.sum.Canceled++
		if t.open {
			s.closeUse(t, r.T, EndCanceled, r.Flags&trace.FlagSatisfied != 0)
			s.openCount--
		}
	case trace.OpExpire:
		s.sum.Expired++
		if t.open {
			s.closeUse(t, r.T, EndExpired, false)
			s.openCount--
		}
	}
}

// flushOrigin adds a finished run of the timer's armings to its Table 3
// row, looking the row up (and creating it) the first time under the
// timer's current name. It stays out of line so the row's allocation is
// not inlined into record.
//
//go:noinline
func (s *shard) flushOrigin(t *streamTimer, r valueRun) {
	if t.origin == nil {
		t.origin = s.origins.stats(t.originName)
	}
	s.origins.flushRun(t.origin, r)
}

// rename gives a timer first seen under the unresolved origin "?" the
// name a later record resolves. Its pending origin run holds armings made
// under the old name, so the run flushes to the old name's row, and the
// next flush looks the row up under the new name.
func (s *shard) rename(t *streamTimer, name string) {
	if name == t.originName {
		return
	}
	if t.orun.n != 0 {
		s.flushOrigin(t, t.orun)
	}
	t.origin, t.orun = nil, valueRun{}
	t.originName = name
}

// resolve folds one use whose chain membership is now known into the value
// histograms, through runs (runs[i] pends for the i-th accumulator):
// collapsed accumulators take chain starts and non-members, plain ones
// take every use.
func (s *shard) resolve(runs *[maxValueAccs]valueRun, t *streamTimer, timeout sim.Duration, member, chainStart bool) {
	for i, a := range s.vaccs {
		if a.opts.excludedAttrs(t.user, t.originName) {
			continue
		}
		if a.opts.CollapseCountdowns && member && !chainStart {
			continue
		}
		a.addRun(&runs[i], t.user, timeout)
	}
}

func (s *shard) closeUse(t *streamTimer, endAt sim.Time, end EndKind, satisfied bool) {
	u := t.pend()
	u.EndAt, u.End, u.Satisfied = endAt, end, satisfied
	t.open = false
	t.closed++
	t.addTval(u.Timeout)
	switch end {
	case EndExpired:
		t.expired++
	case EndCanceled:
		t.canceled++
		if u.Timeout > 0 && u.Elapsed() < u.Timeout-JitterTolerance {
			t.earlyCancels++
		}
	case EndReset:
		t.reset++
	}
	if t.candImmediate {
		t.immediate++
	}
	if s.scatter != nil && !s.scatter.vo.excludedAttrs(t.user, t.originName) {
		s.scatter.addUse(u)
	}
	t.hasPrev, t.prevEnd, t.prevEndAt = true, end, endAt
}

// classify mirrors Classify over the closed-use tallies, widened to int
// before they multiply.
func (s *shard) classify(t *streamTimer) Class {
	total := int(t.closed)
	if total < 2 {
		return ClassOther
	}
	if !s.constantValue(t) {
		return ClassOther
	}
	expired, canceled, reset := int(t.expired), int(t.canceled), int(t.reset)
	switch {
	case expired == 0 && reset > 0 && reset >= canceled:
		return ClassWatchdog
	case reset > 0 && expired > 0 && canceled*10 <= total:
		return ClassDeferred
	case expired*10 >= total*9:
		if expired > 0 && float64(t.immediate)/float64(expired) >= 0.8 {
			return ClassPeriodic
		}
		return ClassDelay
	case canceled*10 >= total*8 && canceled > 0 && int(t.earlyCancels)*10 >= canceled*8:
		return ClassTimeout
	default:
		return ClassOther
	}
}

// constantValue mirrors constantValue over the timeout histogram: the
// median of the closed-use multiset and the 90 %-within-tolerance rule.
// The shard's scratch slice keeps the fold allocation-free, and the median
// is a weighted selection over the k distinct values, O(k) where a sort
// would cost O(k log k): countdown timers reach thousands.
func (s *shard) constantValue(t *streamTimer) bool {
	n := int(t.closed)
	vals := append(s.tvScratch[:0], t.tv[:t.ntv]...)
	if t.tvMore != nil {
		for _, e := range t.tvMore.entries {
			vals = append(vals, tvalSlot{v: sim.Duration(e.key), n: e.n})
		}
	}
	s.tvScratch = vals
	median := weightedMedian(vals, n)
	within := 0
	for _, vc := range vals {
		d := vc.v - median
		if d < 0 {
			d = -d
		}
		if d <= JitterTolerance {
			within += vc.n
		}
	}
	return within*10 >= n*9
}

// weightedMedian returns the smallest value whose cumulative count, in
// value order, exceeds n/2 — the median a walk over the sorted values
// finds — or 0 when the counts never do. vals holds distinct values and is
// reordered in place. It is a quickselect: each step partitions around a
// median-of-three pivot and keeps the side that holds the wanted rank, for
// an expected O(len(vals)). Past twice the slice's bit length in steps it
// sorts what is left instead, which caps the worst case at O(k log k).
func weightedMedian(vals []tvalSlot, n int) sim.Duration {
	rank := n / 2 // 0-based rank of the wanted sample
	budget := 2 * bits.Len(uint(len(vals)))
	for len(vals) > 0 {
		if budget--; budget < 0 {
			slices.SortFunc(vals, func(a, b tvalSlot) int { return cmp.Compare(a.v, b.v) })
			for _, vc := range vals {
				if rank < vc.n {
					return vc.v
				}
				rank -= vc.n
			}
			return 0
		}
		pivot := medianOfThree(vals[0].v, vals[len(vals)/2].v, vals[len(vals)-1].v)
		// Partition into [< pivot | pivot | > pivot]: the values are
		// distinct, so the middle is the one slot at lo.
		lo, hi, below := 0, len(vals), 0
		for i := 0; i < hi; {
			switch v := vals[i].v; {
			case v < pivot:
				below += vals[i].n
				vals[lo], vals[i] = vals[i], vals[lo]
				lo++
				i++
			case v > pivot:
				hi--
				vals[i], vals[hi] = vals[hi], vals[i]
			default:
				i++
			}
		}
		switch {
		case rank < below:
			vals = vals[:lo]
		case rank < below+vals[lo].n:
			return pivot
		default:
			rank -= below + vals[lo].n
			vals = vals[hi:]
		}
	}
	return 0
}

// medianOfThree returns the middle one of three values.
func medianOfThree(a, b, c sim.Duration) sim.Duration {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// fold finishes the shard's own per-timer state after the last record.
func (s *shard) fold() { s.foldFrom(s) }

// foldFrom finishes src's per-timer state into s's accumulators: pending
// runs flush, trailing pending uses resolve, and each timer with at least
// one use classifies into s's Figure 2 and Table 3 tallies. When s is src
// (fold), the runs flush and clear. Otherwise src is only read, so it may
// be a live Partial that keeps folding records afterwards: its pending
// runs add into s, a Merger's per-view overlay, and stay pending in src,
// and the next merge's fresh overlay adds them again with whatever they
// gained since. Timers fold in creation order, but nothing order-sensitive
// leaves the fold: every output is an additive tally or canonically sorted
// at finish.
func (s *shard) foldFrom(src *shard) {
	for i := 0; i < src.nTimers; i++ {
		t := src.timer(int32(i))
		runs := t.vrun
		if t.hasPend {
			// The last use has no successor: a chain member only if the
			// step from its predecessor held.
			s.resolve(&runs, t, t.pendTimeout, t.fromPrev, false)
		}
		for k, a := range s.vaccs {
			a.flushRun(runs[k])
		}
		if s == src {
			t.vrun = [maxValueAccs]valueRun{}
		}
		if t.hasUse {
			class := s.classify(t)
			s.shares.Counts[class]++
			s.shares.Total++
			if s.origins != nil {
				st := t.origin
				if st == nil || s != src {
					st = s.origins.stats(t.originName)
				}
				s.origins.flushRun(st, t.orun)
				if s == src {
					t.orun = valueRun{}
				}
				st.observeTimer(class)
			}
		}
	}
	s.sum.Timers += src.nTimers
}

// merge folds another shard of the same Pipeline into s. Every operation is
// commutative-additive (sums, max, set union, histogram addition), so merge
// order cannot influence the finished Report. Bins and rows that reset
// zeroed in place are skipped, so none reaches s as a zero-count key.
func (s *shard) merge(o *shard) {
	s.sum.add(o.sum)
	s.end = max(s.end, o.end)
	s.shares.add(o.shares)
	for k := range o.clusters {
		s.clusters[k] = true
	}
	for i, a := range s.vaccs {
		a.merge(o.vaccs[i])
	}
	if s.scatter != nil {
		s.scatter.merge(o.scatter)
	}
	s.pts = append(s.pts, o.pts...)
	if s.origins != nil {
		s.origins.merge(o.origins)
	}
}

// reset zeroes every accumulator merge reads — the summary counters, end,
// class tallies, clusters, series points, value histograms, scatter bins
// and origin rows — leaving the timer table and the concurrency tracking
// as they are. Maps and count tables are cleared, not replaced, so they
// keep their capacity, and scatter bins and origin rows are zeroed in
// place (timers hold pointers to their rows), so records folded after a
// reset allocate no more than they did before it.
func (s *shard) reset() {
	s.sum, s.end, s.shares = Summary{}, 0, ClassShares{}
	clear(s.clusters)
	s.pts = s.pts[:0]
	for _, a := range s.vaccs {
		a.counts.reset()
		a.total = 0
	}
	if s.scatter != nil {
		for _, pt := range s.scatter.agg {
			pt.Count, pt.Expired = 0, 0
		}
	}
	if s.origins != nil {
		for _, st := range s.origins.byOrigin {
			if !st.empty() {
				st.values.reset()
				*st = originStats{values: st.values}
			}
		}
	}
}

// add sums another Summary's additive counters into s; ClusteredTimers
// and Concurrency are filled at finish.
func (s *Summary) add(o Summary) {
	s.Timers += o.Timers
	s.Accesses += o.Accesses
	s.UserSpace += o.UserSpace
	s.Kernel += o.Kernel
	s.Set += o.Set
	s.Expired += o.Expired
	s.Canceled += o.Canceled
}

// add sums another tally into s.
func (s *ClassShares) add(o ClassShares) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Total += o.Total
}

// report finishes every accumulator of main, summed with those of the
// overlay ov when it is non-nil, into a Report. It writes neither shard,
// except that main's series points are sorted in place. concurrency is the externally tracked Summary.Concurrency (shard-local
// tracking is only exact for a single shard).
func (p Pipeline) report(main, ov *shard, concurrency int) *Report {
	if ov == nil {
		ov = &shard{} // every accumulator nil: adds nothing
	}
	rep := &Report{Summary: main.sum, End: max(main.end, ov.end), Shares: main.shares}
	rep.Summary.add(ov.sum)
	rep.Shares.add(ov.shares)
	rep.Summary.ClusteredTimers = len(main.clusters)
	rep.Summary.Concurrency = concurrency
	rep.Values, rep.ValuesTotal = main.values.finish(ov.values)
	if main.valuesF != nil {
		rep.ValuesFiltered, rep.ValuesFilteredTotal = main.valuesF.finish(ov.valuesF)
	}
	if main.valuesU != nil {
		rep.ValuesUser, rep.ValuesUserTotal = main.valuesU.finish(ov.valuesU)
	}
	if main.scatter != nil {
		rep.Scatter = main.scatter.finish()
	}
	if p.SeriesProcess != "" {
		sortSeries(main.pts)
		rep.Series = main.pts
	}
	if main.origins != nil {
		rep.Origins = main.origins.finish(ov.origins)
	}
	return rep
}

// Run executes the pipeline over one trace in a single pass. Errors come
// from the source (a truncated or corrupt stream); an in-memory Buffer
// never fails.
func (p Pipeline) Run(src trace.Source) (*Report, error) {
	sh := p.newShard()
	var err error
	if cs, ok := src.(trace.ChunkedSource); ok {
		err = cs.ForEachChunk(1, func(c trace.Chunk) error {
			for _, r := range c.Records {
				sh.record(r, c.Origins, nil)
			}
			return nil
		})
	} else {
		err = src.ForEach(func(r trace.Record) { sh.record(r, nil, src) })
	}
	if err != nil {
		return nil, err
	}
	sh.fold()
	rep := p.report(sh, nil, sh.maxOpen)
	sh.releaseArena()
	return rep, nil
}
