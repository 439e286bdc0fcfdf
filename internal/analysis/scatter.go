package analysis

import (
	"math"
	"sort"

	"timerstudy/internal/sim"
)

// ScatterPoint is one aggregated circle of Figures 8-11: a timeout value, a
// ratio of elapsed-to-requested time, and how many uses landed there. The
// figures cut off above 250 %.
type ScatterPoint struct {
	// Timeout is the requested value (bin representative).
	Timeout sim.Duration
	// RatioPct is elapsed/requested in percent (bin representative).
	RatioPct float64
	// Count aggregates uses in the bin.
	Count int
	// Expired is how many of them expired (the rest were canceled).
	Expired int
}

// ScatterOptions controls aggregation.
type ScatterOptions struct {
	// ExcludeProcesses filters origins as in ValueOptions (the paper
	// filters X and icewm from the Linux figures).
	ExcludeProcesses []string
	// CutoffPct drops points above this ratio (paper: 250).
	CutoffPct float64
	// LogBinsPerDecade sets x-axis resolution (default 5).
	LogBinsPerDecade int
	// RatioBinPct sets y-axis resolution in percent (default 10).
	RatioBinPct float64
}

// DefaultScatterOptions mirror the paper's figures.
func DefaultScatterOptions() ScatterOptions {
	return ScatterOptions{CutoffPct: 250, LogBinsPerDecade: 5, RatioBinPct: 10}
}

type scatterKey struct {
	x int
	y int
}

// scatterAcc aggregates completed uses into (timeout, ratio) bins; it is the
// single implementation behind Scatter and the pipeline.
type scatterAcc struct {
	opts ScatterOptions
	vo   ValueOptions
	bins *logBinner
	agg  map[scatterKey]*ScatterPoint
}

func newScatterAcc(opts ScatterOptions) *scatterAcc {
	if opts.CutoffPct == 0 {
		opts.CutoffPct = 250
	}
	if opts.LogBinsPerDecade == 0 {
		opts.LogBinsPerDecade = 5
	}
	if opts.RatioBinPct == 0 {
		opts.RatioBinPct = 10
	}
	return &scatterAcc{
		opts: opts,
		vo:   ValueOptions{ExcludeProcesses: opts.ExcludeProcesses},
		bins: newLogBinner(opts.LogBinsPerDecade),
		agg:  make(map[scatterKey]*ScatterPoint),
	}
}

func (a *scatterAcc) observe(tl *TimerLife) {
	if a.vo.excluded(tl) {
		return
	}
	for _, u := range tl.Uses {
		a.addUse(u)
	}
}

// addUse bins one completed use; the streaming pipeline calls it as uses
// close (after applying the process exclusion itself).
func (a *scatterAcc) addUse(u Use) {
	ratio, ok := u.Ratio()
	if !ok {
		return
	}
	pct := ratio * 100
	if pct > a.opts.CutoffPct {
		return
	}
	// Integer log-binning: table-driven, byte-identical to the old
	// per-record Log10 computation (see logBinner).
	xb := a.bins.bin(int64(u.Timeout))
	yb := int(math.Floor(pct / a.opts.RatioBinPct))
	k := scatterKey{xb, yb}
	p, okk := a.agg[k]
	if !okk {
		p = &ScatterPoint{
			Timeout:  sim.DurationOfSeconds(math.Pow(10, float64(xb)/float64(a.opts.LogBinsPerDecade))),
			RatioPct: float64(yb) * a.opts.RatioBinPct,
		}
		a.agg[k] = p
	}
	p.Count++
	if u.End == EndExpired {
		p.Expired++
	}
}

// merge folds another accumulator over the same options into a; bins add
// commutatively, and equal keys carry equal representatives, so shard merge
// order cannot influence the result. Bins a reset zeroed are skipped.
func (a *scatterAcc) merge(o *scatterAcc) {
	for k, op := range o.agg {
		if op.Count == 0 {
			continue
		}
		p, ok := a.agg[k]
		if !ok {
			cp := *op
			a.agg[k] = &cp
			continue
		}
		p.Count += op.Count
		p.Expired += op.Expired
	}
}

func (a *scatterAcc) finish() []ScatterPoint {
	out := make([]ScatterPoint, 0, len(a.agg))
	for _, p := range a.agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Timeout != out[j].Timeout {
			return out[i].Timeout < out[j].Timeout
		}
		return out[i].RatioPct < out[j].RatioPct
	})
	return out
}

// Scatter aggregates every completed use into (timeout, ratio) bins.
// Timers set to expire immediately or in the past are not plotted, as in
// the paper.
func Scatter(ls []*TimerLife, opts ScatterOptions) []ScatterPoint {
	a := newScatterAcc(opts)
	for _, tl := range ls {
		a.observe(tl)
	}
	return a.finish()
}
