package analysis

import (
	"sort"

	"timerstudy/internal/sim"
)

// OriginRow is one line of Table 3: a timeout value, where it comes from,
// and its usage class.
type OriginRow struct {
	// Value is the modal timeout of the origin's timers (jiffy-binned for
	// kernel timers).
	Value sim.Duration
	// Origin is the source label.
	Origin string
	// Class is the dominant usage pattern.
	Class Class
	// Sets counts arming operations from this origin.
	Sets int
	// Timers counts distinct timer identities.
	Timers int
}

// originAcc accumulates Table 3; it is the single implementation behind
// OriginTable and the pipeline. The caller supplies each timer's class so
// classification can be computed once and shared with the Figure 2 tally.
type originAcc struct {
	minSets  int
	vo       ValueOptions
	byOrigin map[string]*originStats
}

type originStats struct {
	// values counts the row's binned armings by value.
	values countTable
	class  [nClasses]int
	sets   int
	timers int
}

func newOriginAcc(minSets int) *originAcc {
	return &originAcc{
		minSets:  minSets,
		vo:       ValueOptions{JiffyBinKernel: true},
		byOrigin: make(map[string]*originStats),
	}
}

func (a *originAcc) observe(tl *TimerLife, class Class) {
	if len(tl.Uses) == 0 {
		return
	}
	a.observeTimer(tl.Origin, class)
	for _, u := range tl.Uses {
		a.observeUse(tl.Origin, tl.User, u.Timeout)
	}
}

func (a *originAcc) stats(origin string) *originStats {
	s, ok := a.byOrigin[origin]
	if !ok {
		s = &originStats{}
		a.byOrigin[origin] = s
	}
	return s
}

// observeUse folds one arming into its origin's value histogram.
func (a *originAcc) observeUse(origin string, user bool, v sim.Duration) {
	s := a.stats(origin)
	b, _ := a.vo.binAttrs(user, v)
	s.values.add(int64(b), 1)
	s.sets++
}

// flushRun adds a timer's finished or pending run of armings to row s:
// the run's length counts as sets, its value into the histogram. The
// streaming pipeline batches a timer's armings in its pending run and
// flushes the run when it breaks or at fold.
func (a *originAcc) flushRun(s *originStats, r valueRun) {
	if r.n == 0 {
		return
	}
	b, _ := a.vo.binAttrs(r.user, r.v)
	s.values.add(int64(b), int(r.n))
	s.sets += int(r.n)
}

// observeTimer folds one timer's identity and class into its origin row.
func (a *originAcc) observeTimer(origin string, class Class) {
	a.stats(origin).observeTimer(class)
}

// empty reports a row with no sets and no timers: new from stats, or
// zeroed by a shard reset.
func (s *originStats) empty() bool { return s.sets == 0 && s.timers == 0 }

// observeTimer counts one timer of the row with its class; the streaming
// pipeline calls it at end of trace, for timers with at least one use.
func (s *originStats) observeTimer(class Class) {
	s.timers++
	s.class[class]++
}

// merge folds another accumulator into a. Same-named origins from different
// shards combine by plain addition of their value histograms and tallies,
// so shard merge order cannot influence the finished rows. Empty rows are
// skipped.
func (a *originAcc) merge(o *originAcc) {
	for origin, os := range o.byOrigin {
		if os.empty() {
			continue
		}
		s := a.stats(origin)
		s.sets += os.sets
		s.timers += os.timers
		for c := range os.class {
			s.class[c] += os.class[c]
		}
		s.values.addAll(&os.values)
	}
}

// finish returns the Table 3 rows of a, each summed with ov's row of the
// same origin when ov is non-nil. Neither accumulator is written.
func (a *originAcc) finish(ov *originAcc) []OriginRow {
	var ovRows map[string]*originStats
	if ov != nil {
		ovRows = ov.byOrigin
	}
	rows := make([]OriginRow, 0, len(a.byOrigin))
	add := func(origin string, s, o *originStats) {
		sets, timers, classes := s.sets, s.timers, s.class
		var ovValues *countTable
		if o != nil {
			sets, timers, ovValues = sets+o.sets, timers+o.timers, &o.values
			for c := range classes {
				classes[c] += o.class[c]
			}
		}
		if sets < a.minSets {
			return
		}
		var modal sim.Duration
		best := -1
		s.values.sum(ovValues, func(k int64, c int) {
			if v := sim.Duration(k); c > best || (c == best && v < modal) {
				modal, best = v, c
			}
		})
		classBest, class := -1, ClassOther
		for c := range classes {
			if classes[c] > classBest {
				classBest, class = classes[c], Class(c)
			}
		}
		rows = append(rows, OriginRow{
			Value: modal, Origin: origin, Class: class,
			Sets: sets, Timers: timers,
		})
	}
	for origin, s := range a.byOrigin {
		add(origin, s, ovRows[origin])
	}
	for origin, o := range ovRows {
		if _, ok := a.byOrigin[origin]; !ok {
			add(origin, o, nil)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value < rows[j].Value
		}
		return rows[i].Origin < rows[j].Origin
	})
	return rows
}

// OriginTable groups lifecycles by origin, finds each origin's modal
// timeout value and dominant class, and returns rows sorted by value then
// origin — the shape of Table 3. Origins with fewer than minSets sets are
// dropped.
func OriginTable(ls []*TimerLife, minSets int) []OriginRow {
	a := newOriginAcc(minSets)
	for _, tl := range ls {
		a.observe(tl, Classify(tl))
	}
	return a.finish(nil)
}
