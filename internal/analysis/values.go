package analysis

import (
	"math"
	"sort"
	"strings"

	"timerstudy/internal/jiffies"
	"timerstudy/internal/sim"
)

// ValueOptions selects and bins timeout values for the common-value
// histograms (Figures 3, 5, 6, 7).
type ValueOptions struct {
	// UserOnly restricts to user-space accesses (Figure 6).
	UserOnly bool
	// ExcludeProcesses drops timers whose origin belongs to these processes
	// (origin prefix before '/'); Figure 5 excludes Xorg and icewm.
	ExcludeProcesses []string
	// CollapseCountdowns replaces each detected select-countdown chain with
	// a single sample of its initial (programmer-chosen) value (Figure 5).
	CollapseCountdowns bool
	// JiffyBinKernel bins kernel-side values to whole jiffies, as the
	// Linux analysis does; user values always bin to 100 µs.
	JiffyBinKernel bool
	// MinSharePercent drops entries below this share of all samples
	// (the paper's figures use 2 %).
	MinSharePercent float64
}

// ValueEntry is one histogram bar.
type ValueEntry struct {
	// Value is the binned timeout.
	Value sim.Duration
	// Jiffies is the jiffy count when jiffy-binned (0 otherwise).
	Jiffies uint64
	// Count is the number of samples in the bin.
	Count int
	// Share is Count as a percentage of all samples (before thresholding).
	Share float64
}

// userBin quantizes user-supplied values to 100 µs.
const userBin = 100 * sim.Microsecond

func processOf(origin string) string {
	if i := strings.IndexByte(origin, '/'); i >= 0 {
		return origin[:i]
	}
	return origin
}

func (o ValueOptions) excluded(tl *TimerLife) bool {
	return o.excludedAttrs(tl.User, tl.Origin)
}

// excludedAttrs is the attribute-level form of excluded, shared with the
// streaming pipeline (which folds uses before a full TimerLife exists).
func (o ValueOptions) excludedAttrs(user bool, origin string) bool {
	if o.UserOnly && !user {
		return true
	}
	if len(o.ExcludeProcesses) == 0 {
		return false
	}
	proc := processOf(origin)
	for _, p := range o.ExcludeProcesses {
		if proc == p {
			return true
		}
	}
	return false
}

func (o ValueOptions) bin(tl *TimerLife, v sim.Duration) (sim.Duration, uint64) {
	return o.binAttrs(tl.User, v)
}

// binAttrs is the attribute-level form of bin, shared with the streaming
// pipeline.
func (o ValueOptions) binAttrs(user bool, v sim.Duration) (sim.Duration, uint64) {
	if v < 0 {
		v = 0
	}
	if o.JiffyBinKernel && !user {
		j := jiffies.MsecsToJiffies(v)
		return sim.Duration(j) * jiffies.JiffyDuration, j
	}
	binned := (v + userBin/2) / userBin * userBin
	return binned, 0
}

// chainProvider lazily supplies a timer's countdown chains. The pipeline
// memoizes one computation per timer and shares it across every accumulator
// that collapses countdowns.
type chainProvider func() []Chain

// valueAcc accumulates one common-value histogram. It is the single
// implementation behind both CommonValues and the pipeline, so the two can
// never disagree.
type valueAcc struct {
	opts ValueOptions
	// counts holds each bin's count under its packed valueKey.
	counts countTable
	total  int
}

// maxJiffyBin is the largest jiffy count binAttrs returns: a timeout of
// math.MaxInt64 ns, rounded up to whole jiffies.
const maxJiffyBin = math.MaxInt64/int64(jiffies.JiffyDuration) + 1

// valueKey packs a histogram bin into a countTable key: jiffy bin j > 0
// becomes -j, and any other bin its binned value, which is never negative
// except for a user value within userBin/2 of math.MaxInt64, whose
// rounding overflows to a key far below -maxJiffyBin. A kernel value
// binned to 0 jiffies is the value 0, the same key as a user value of 0,
// so the two share one bar, as they always have.
func valueKey(v sim.Duration, j uint64) int64 {
	if j > 0 {
		return -int64(j)
	}
	return int64(v)
}

// unpackValueKey inverts valueKey.
func unpackValueKey(k int64) (sim.Duration, uint64) {
	if k < 0 && k >= -maxJiffyBin {
		j := uint64(-k)
		return sim.Duration(j) * jiffies.JiffyDuration, j
	}
	return sim.Duration(k), 0
}

func newValueAcc(opts ValueOptions) *valueAcc {
	return &valueAcc{opts: opts}
}

func (a *valueAcc) add(tl *TimerLife, v sim.Duration) {
	a.addAttrs(tl.User, v)
}

// addAttrs bins and counts one sample given the timer's attributes.
func (a *valueAcc) addAttrs(user bool, v sim.Duration) {
	a.counts.add(valueKey(a.opts.binAttrs(user, v)), 1)
	a.total++
}

// valueRun is one timer's pending run of equal samples for one histogram:
// the raw value, the user flag it bins under, and how many times it
// repeated. Most samples repeat their timer's previous one (86% on the
// nine seed-1 evaluation traces), so the streaming fold counts a repeat
// here and touches the histogram table only when the run breaks. The zero run is empty and also reads as
// (0, kernel) with no samples, so a first sample of 0 extends it.
type valueRun struct {
	v    sim.Duration
	n    int32
	user bool
}

// push counts one sample into r. When the sample breaks the run (another
// value or user flag, or a full counter) r restarts with it and push
// returns the finished run for the caller to flush; otherwise it returns
// the empty run.
func (r *valueRun) push(user bool, v sim.Duration) valueRun {
	if r.v == v && r.user == user && r.n < math.MaxInt32 {
		r.n++
		return valueRun{}
	}
	done := *r
	*r = valueRun{v: v, n: 1, user: user}
	return done
}

// addRun counts one sample through the timer's pending run r; the
// streaming pipeline calls it as uses resolve.
func (a *valueAcc) addRun(r *valueRun, user bool, v sim.Duration) {
	a.total++
	if done := r.push(user, v); done.n != 0 {
		a.flushRun(done)
	}
}

// flushRun adds a finished or pending run's samples to the histogram bins;
// a.total already counted them in addRun.
func (a *valueAcc) flushRun(r valueRun) {
	if r.n == 0 {
		return
	}
	a.counts.add(valueKey(a.opts.binAttrs(r.user, r.v)), int(r.n))
}

// observe folds one timer's uses into the histogram.
func (a *valueAcc) observe(tl *TimerLife, chains chainProvider) {
	if a.opts.excluded(tl) {
		return
	}
	if a.opts.CollapseCountdowns {
		cs := chains()
		for _, chain := range cs {
			a.add(tl, tl.Uses[chain.Start].Timeout)
			// Chain members beyond the first are dropped.
		}
		for i, inChain := range chainMembership(len(tl.Uses), cs) {
			if !inChain {
				a.add(tl, tl.Uses[i].Timeout)
			}
		}
	} else {
		for _, u := range tl.Uses {
			a.add(tl, u.Timeout)
		}
	}
}

// merge folds another accumulator over the same options into a. Histogram
// addition is commutative, so shard merge order cannot influence the
// result; only the order of a's entries, which finish sorts away, can.
func (a *valueAcc) merge(o *valueAcc) {
	a.counts.addAll(&o.counts)
	a.total += o.total
}

// finish applies the share threshold to a's histogram, summed with ov's
// when ov is non-nil, and returns the sorted entries plus the total sample
// count. Neither accumulator is written.
func (a *valueAcc) finish(ov *valueAcc) ([]ValueEntry, int) {
	total := a.total
	var ovCounts *countTable
	if ov != nil {
		total += ov.total
		ovCounts = &ov.counts
	}
	// Never nil, even when empty: a nil histogram renders as unconfigured.
	n := a.counts.len() + ovCounts.len()
	if p := a.opts.MinSharePercent; p > 0 {
		n = min(n, int(100/p)+1) // shares sum to 100, so few bins reach p
	}
	entries := make([]ValueEntry, 0, n)
	a.counts.sum(ovCounts, func(k int64, c int) {
		share := 100 * float64(c) / float64(total)
		if share >= a.opts.MinSharePercent {
			v, j := unpackValueKey(k)
			entries = append(entries, ValueEntry{Value: v, Jiffies: j, Count: c, Share: share})
		}
	})
	// A user-space bin and a jiffy bin can land on the same Value (e.g. a
	// user 5 s next to kernel jiffies 1250 = 5 s); break the tie on Jiffies
	// so the order never depends on which bin was seen first.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Value != entries[j].Value {
			return entries[i].Value < entries[j].Value
		}
		return entries[i].Jiffies < entries[j].Jiffies
	})
	return entries, total
}

// CommonValues computes the binned value histogram over all sets in the
// lifecycles, applying the options' filters. It returns the entries at or
// above the share threshold (sorted by value) and the total sample count.
func CommonValues(ls []*TimerLife, opts ValueOptions) ([]ValueEntry, int) {
	a := newValueAcc(opts)
	for _, tl := range ls {
		tl := tl
		a.observe(tl, func() []Chain { return CountdownChains(tl) })
	}
	return a.finish(nil)
}

// Chain is a run of uses forming a select-style countdown: each re-set's
// value is the previous value minus the elapsed time — Linux writing the
// remaining timeout back and the program re-issuing it (Figure 4).
type Chain struct {
	// Start and End index tl.Uses (End exclusive).
	Start, End int
}

// Len returns the number of uses in the chain.
func (c Chain) Len() int { return c.End - c.Start }

// countdownTolerance allows for jiffy quantization of the written-back
// remainder plus scheduling jitter.
const countdownTolerance = 2*sim.Duration(jiffies.JiffyDuration) + JitterTolerance

// isCountdownStep reports whether next continues a countdown from prev.
func isCountdownStep(prev, next Use) bool {
	gap := next.SetAt.Sub(prev.SetAt)
	if gap <= 0 {
		return false
	}
	expected := prev.Timeout - gap
	if expected < 0 {
		expected = 0
	}
	diff := next.Timeout - expected
	if diff < 0 {
		diff = -diff
	}
	// A genuine countdown strictly decreases; a watchdog re-set to the
	// same value must not match.
	return diff <= countdownTolerance && next.Timeout < prev.Timeout-JitterTolerance
}

// CountdownChains finds maximal countdown runs of length ≥ 2 in a timer's
// uses.
func CountdownChains(tl *TimerLife) []Chain {
	var chains []Chain
	i := 0
	for i < len(tl.Uses)-1 {
		j := i
		for j+1 < len(tl.Uses) && isCountdownStep(tl.Uses[j], tl.Uses[j+1]) {
			j++
		}
		if j > i {
			chains = append(chains, Chain{Start: i, End: j + 1})
			i = j + 1
		} else {
			i++
		}
	}
	return chains
}

// chainMembership marks which of n uses belong to some countdown chain.
func chainMembership(n int, chains []Chain) []bool {
	in := make([]bool, n)
	for _, c := range chains {
		for i := c.Start; i < c.End; i++ {
			in[i] = true
		}
	}
	return in
}

// SeriesPoint is one dot of Figure 4: a set operation at T with value V.
type SeriesPoint struct {
	T sim.Time
	V sim.Duration
}

// seriesAcc accumulates the Figure 4 dot plot for one process.
type seriesAcc struct {
	process string
	pts     []SeriesPoint
}

func (a *seriesAcc) observe(tl *TimerLife) {
	if processOf(tl.Origin) != a.process {
		return
	}
	for _, u := range tl.Uses {
		a.pts = append(a.pts, SeriesPoint{T: u.SetAt, V: u.Timeout})
	}
}

func (a *seriesAcc) finish() []SeriesPoint {
	sortSeries(a.pts)
	return a.pts
}

// sortSeries canonically orders Figure 4 points. The V tie-break matters:
// distinct timers can arm at the same instant, and sort.Slice is unstable,
// so ordering by T alone would let accumulation order (which differs across
// shard counts) leak into the finished slice.
func sortSeries(pts []SeriesPoint) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].T != pts[j].T {
			return pts[i].T < pts[j].T
		}
		return pts[i].V < pts[j].V
	})
}

// SetSeries extracts (time, value) points for timers whose origin has the
// given process prefix — the Figure 4 dot plot of the X server's select
// timer.
func SetSeries(ls []*TimerLife, process string) []SeriesPoint {
	a := seriesAcc{process: process}
	for _, tl := range ls {
		a.observe(tl)
	}
	return a.finish()
}
