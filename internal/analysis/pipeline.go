package analysis

import (
	"cmp"
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
}

// tvalSlot is one (timeout value, count) pair of a timer's closed-use
// histogram.
type tvalSlot struct {
	v sim.Duration
	n int
}

// inlineTvals is the number of distinct timeout values a timer tracks
// without spilling to a map. Measured per timer on the paper's workloads:
// every Vista timer uses at most 3 distinct values except on the desktop
// trace (up to 578), while a Linux select-countdown timer re-armed with its
// remaining time reaches 15,080 (seed 1, 300 s). Four inline slots cover
// the common case; the spill map and constantValue's O(k log k) sort cover
// the countdowns.
const inlineTvals = 4

// streamTimer is the bounded per-timer state the streaming pass keeps in
// place of a full TimerLife: classification tallies, the open use, the
// previous closed use (for immediate-reset pairing) and the one pending use
// whose countdown-chain membership the next arming decides. Everything else
// folds into the shared accumulators as uses open and close.
//
// streamTimers live in a shard's block arena and are never allocated
// individually; the zero value is the fresh state.
type streamTimer struct {
	originName string
	user       bool

	// The currently armed use, if any.
	open    bool
	openUse Use
	// candImmediate marks an open use whose arming followed the previous
	// use's expiry within the jitter tolerance; it counts toward the
	// periodic signature only if this use closes (matching Classify's
	// truncated-slice semantics).
	candImmediate bool

	// Previous closed use, for the expiry→re-set pairing.
	hasPrev   bool
	prevEnd   EndKind
	prevEndAt sim.Time

	// Countdown-chain detection: membership of the most recently opened
	// use resolves when the next one opens (or at end of trace).
	hasPend  bool
	pend     Use
	fromPrev bool

	// Tallies over closed uses — exactly the uses Classify sees after
	// dropping a trailing dangling one. Timeout values count into inline
	// slots, spilling to tvMore only past inlineTvals distinct values.
	closed       int
	expired      int
	canceled     int
	reset        int
	earlyCancels int
	immediate    int
	ntv          uint8
	tv           [inlineTvals]tvalSlot
	tvMore       map[sim.Duration]int

	// hasUse reports at least one arming ever (gates the Figure 2 tally).
	hasUse bool

	// The (origin name, PID) cluster key of this timer's last record, so
	// record writes the shard's cluster set only when the key changes.
	hasCluster  bool
	lastCluster cluster
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
		t.tvMore = make(map[sim.Duration]int, 4)
	}
	t.tvMore[v]++
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
// identical — interning makes name and ID one-to-one.
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

	// Timer table: creation-order arena blocks indexed through byID.
	byID    map[uint64]int32
	blocks  []*timerBlock
	nTimers int

	// openCount/maxOpen track pending-timer concurrency; exact only when
	// the shard owns every timer (Run). RunParallel tracks concurrency
	// globally instead and ignores these.
	openCount, maxOpen int

	tvScratch []tvalSlot
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

// newTimer allocates the next arena slot; the cold path of record.
func (s *shard) newTimer(id uint64, name string) *streamTimer {
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
	t.originName = name
	return t
}

// releaseArena clears the shard's used arena slots and gives its blocks to
// the recycler. The shard must not record or fold afterwards.
func (s *shard) releaseArena() {
	for i, b := range s.blocks {
		clear(b[:min(timerBlockSize, s.nTimers-i*timerBlockSize)])
		timerBlocks.Put(b)
	}
	s.blocks, s.nTimers = nil, 0
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
//lint:allocfree per-record hot path; timer state comes from the block arena and every tally is inline or in a warmed map (TestShardRecordZeroAlloc)
func (s *shard) record(r trace.Record, origins []string, src trace.Source) {
	var t *streamTimer
	if idx, ok := s.byID[r.TimerID]; ok {
		t = s.timer(idx)
	} else {
		t = s.newTimer(r.TimerID, resolveOrigin(origins, src, r.Origin))
	}
	if r.Flags&trace.FlagUser != 0 {
		t.user = true
	}
	if t.originName == "?" {
		t.originName = resolveOrigin(origins, src, r.Origin)
	}
	s.sum.Accesses++
	if k := (cluster{resolveOrigin(origins, src, r.Origin), r.PID}); !t.hasCluster || k != t.lastCluster {
		s.clusters[k] = true
		t.lastCluster, t.hasCluster = k, true
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
		u := Use{
			SetAt:   r.T,
			Timeout: sim.Duration(r.Timeout),
			End:     EndDangling,
			IsWait:  r.Op == trace.OpWait,
		}
		t.candImmediate = t.hasPrev && t.prevEnd == EndExpired &&
			r.T.Sub(t.prevEndAt) <= JitterTolerance
		if t.hasPend {
			step := isCountdownStep(t.pend, u)
			s.resolve(t, t.pend, t.fromPrev || step, step && !t.fromPrev)
			t.fromPrev = step
		} else {
			t.fromPrev = false
		}
		t.pend, t.hasPend = u, true
		if s.seriesProcess != "" && processOf(t.originName) == s.seriesProcess {
			s.pts = append(s.pts, SeriesPoint{T: u.SetAt, V: u.Timeout})
		}
		if s.origins != nil {
			s.origins.observeUse(t.originName, t.user, u.Timeout)
		}
		t.hasUse = true
		t.open = true
		t.openUse = u
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

// resolve folds one use whose chain membership is now known into the value
// histograms: collapsed accumulators take chain starts and non-members,
// plain ones take every use.
func (s *shard) resolve(t *streamTimer, u Use, member, chainStart bool) {
	for _, a := range s.vaccs {
		if a.opts.excludedAttrs(t.user, t.originName) {
			continue
		}
		if a.opts.CollapseCountdowns && member && !chainStart {
			continue
		}
		a.addAttrs(t.user, u.Timeout)
	}
}

func (s *shard) closeUse(t *streamTimer, endAt sim.Time, end EndKind, satisfied bool) {
	u := t.openUse
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

// classify mirrors Classify over the closed-use tallies.
func (s *shard) classify(t *streamTimer) Class {
	total := t.closed
	if total < 2 {
		return ClassOther
	}
	if !s.constantValue(t) {
		return ClassOther
	}
	switch {
	case t.expired == 0 && t.reset > 0 && t.reset >= t.canceled:
		return ClassWatchdog
	case t.reset > 0 && t.expired > 0 && t.canceled*10 <= total:
		return ClassDeferred
	case t.expired*10 >= total*9:
		if t.expired > 0 && float64(t.immediate)/float64(t.expired) >= 0.8 {
			return ClassPeriodic
		}
		return ClassDelay
	case t.canceled*10 >= total*8 && t.canceled > 0 && t.earlyCancels*10 >= t.canceled*8:
		return ClassTimeout
	default:
		return ClassOther
	}
}

// constantValue mirrors constantValue over the timeout histogram: the
// median of the closed-use multiset and the 90 %-within-tolerance rule.
// The shard's scratch slice keeps the fold allocation-free, and sorting the
// k distinct values costs O(k log k): countdown timers reach thousands.
func (s *shard) constantValue(t *streamTimer) bool {
	n := t.closed
	vals := s.tvScratch[:0]
	for i := 0; i < int(t.ntv); i++ {
		vals = append(vals, t.tv[i])
	}
	for v, c := range t.tvMore {
		vals = append(vals, tvalSlot{v: v, n: c})
	}
	slices.SortFunc(vals, func(a, b tvalSlot) int { return cmp.Compare(a.v, b.v) })
	s.tvScratch = vals
	var median sim.Duration
	cum := 0
	for _, vc := range vals {
		cum += vc.n
		if n/2 < cum {
			median = vc.v
			break
		}
	}
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

// fold finishes the shard's own per-timer state after the last record.
func (s *shard) fold() { s.foldFrom(s) }

// foldFrom finishes src's per-timer state into s's accumulators: trailing
// pending uses resolve, and each timer with at least one use classifies
// into s's Figure 2 and Table 3 tallies. It only reads src's timer table,
// so src may be a live shard that keeps folding records afterwards. Timers
// fold in creation order, but nothing order-sensitive leaves the fold:
// every output is an additive tally or canonically sorted at finish.
func (s *shard) foldFrom(src *shard) {
	for i := 0; i < src.nTimers; i++ {
		t := src.timer(int32(i))
		if t.hasPend {
			// The last use has no successor: a chain member only if the
			// step from its predecessor held.
			s.resolve(t, t.pend, t.fromPrev, false)
		}
		if t.hasUse {
			class := s.classify(t)
			s.shares.Counts[class]++
			s.shares.Total++
			if s.origins != nil {
				s.origins.observeTimer(t.originName, class)
			}
		}
	}
	s.sum.Timers += src.nTimers
}

// merge folds another shard of the same Pipeline into s. Every operation is
// commutative-additive (sums, max, set union, histogram addition), so merge
// order cannot influence the finished Report.
func (s *shard) merge(o *shard) {
	s.sum.Timers += o.sum.Timers
	s.sum.Accesses += o.sum.Accesses
	s.sum.UserSpace += o.sum.UserSpace
	s.sum.Kernel += o.sum.Kernel
	s.sum.Set += o.sum.Set
	s.sum.Expired += o.sum.Expired
	s.sum.Canceled += o.sum.Canceled
	if o.end > s.end {
		s.end = o.end
	}
	for i, c := range o.shares.Counts {
		s.shares.Counts[i] += c
	}
	s.shares.Total += o.shares.Total
	for k := range o.clusters {
		s.clusters[k] = true
	}
	s.values.merge(o.values)
	if s.valuesF != nil {
		s.valuesF.merge(o.valuesF)
	}
	if s.valuesU != nil {
		s.valuesU.merge(o.valuesU)
	}
	if s.scatter != nil {
		s.scatter.merge(o.scatter)
	}
	s.pts = append(s.pts, o.pts...)
	if s.origins != nil {
		s.origins.merge(o.origins)
	}
}

// report merges folded shards and finishes every accumulator into a Report.
// concurrency is the externally tracked Summary.Concurrency (shard-local
// tracking is only exact for a single shard).
func (p Pipeline) report(shards []*shard, concurrency int) *Report {
	main := shards[0]
	for _, s := range shards[1:] {
		main.merge(s)
	}
	rep := &Report{Summary: main.sum, End: main.end, Shares: main.shares}
	rep.Summary.ClusteredTimers = len(main.clusters)
	rep.Summary.Concurrency = concurrency
	rep.Values, rep.ValuesTotal = main.values.finish()
	if main.valuesF != nil {
		rep.ValuesFiltered, rep.ValuesFilteredTotal = main.valuesF.finish()
	}
	if main.valuesU != nil {
		rep.ValuesUser, rep.ValuesUserTotal = main.valuesU.finish()
	}
	if main.scatter != nil {
		rep.Scatter = main.scatter.finish()
	}
	if p.SeriesProcess != "" {
		sortSeries(main.pts)
		rep.Series = main.pts
	}
	if main.origins != nil {
		rep.Origins = main.origins.finish()
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
	rep := p.report([]*shard{sh}, sh.maxOpen)
	sh.releaseArena()
	return rep, nil
}
