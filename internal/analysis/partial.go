package analysis

import (
	"slices"
	"sync"

	"timerstudy/internal/trace"
)

// Incremental analysis. A Partial is a pipeline shard that is fed chunks as
// they arrive — from a live ingest connection, a file replayed piecewise,
// or any other incremental source — instead of in one Run. A Merger turns
// a set of Partials into a finished Report at any moment and again later,
// moving only what changed since its last merge: it drains each Partial's
// additive accumulators into its persistent base shard, and folds each
// Partial's timer table read-only into a small per-view overlay shard, so a
// trace service can answer queries mid-stream while the Partials keep
// folding records.
//
// Ownership contract: draining moves state out of a Partial, so a Partial
// belongs to the first Merger that merges it (giving it to another one
// panics), and every later Merge of that Merger must be given every
// Partial it merged before, in any position. MergePartials is a one-shot
// Merger: it drains its Partials too.
//
// Determinism contract: a Merge over Partials fed one stream each is
// byte-identical to a single Run over the concatenation of those streams
// (in the given order), provided timer identities do not collide across
// streams; the Merger counts the IDs that do into
// Report.TimerIDCollisions. Everything the fold produces is either
// per-timer (and a timer lives entirely inside one Partial),
// commutative-additive, or canonically sorted at finish — the same
// argument as RunParallel's — except Summary.Concurrency, which the merge
// reconstructs exactly: when stream i's records play after streams
// 0..i-1 ended, every timer those streams left open stays open forever,
// so the running pending count during stream i is (sum of earlier streams'
// still-open timers) + stream i's own count, and the global maximum is
//
//	max_i( Σ_{j<i} openEnd_j + maxOpen_i )
//
// which needs only each Partial's final open count and high-water mark.
type Partial struct {
	mu sync.Mutex
	sh *shard
	// records counts the trace records fed, for observability; it is not
	// part of the report.
	records uint64
	// merger is the Merger that drains this Partial (nil until the first
	// merge), and checked how many of its timers, in creation order, that
	// Merger has checked for shared IDs.
	merger  *Merger
	checked int
}

// NewPartial returns an empty Partial folding with this pipeline's
// configuration. Partials merged together must come from the same
// configuration.
func (p Pipeline) NewPartial() *Partial {
	return &Partial{sh: p.newShard()}
}

// AddChunk folds one chunk of records. Chunks from one stream must arrive
// in stream order; AddChunk is safe to call from any goroutine (calls
// serialize on an internal lock).
func (pa *Partial) AddChunk(c trace.Chunk) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	for _, r := range c.Records {
		pa.sh.record(r, c.Origins, nil)
	}
	pa.records += uint64(len(c.Records))
}

// AddSource folds a whole Source, chunk-at-a-time when the source supports
// it. The error is the source's (decode or IO failure).
func (pa *Partial) AddSource(src trace.Source) error {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	if cs, ok := src.(trace.ChunkedSource); ok {
		return cs.ForEachChunk(1, func(c trace.Chunk) error {
			for _, r := range c.Records {
				pa.sh.record(r, c.Origins, nil)
			}
			pa.records += uint64(len(c.Records))
			return nil
		})
	}
	return src.ForEach(func(r trace.Record) {
		pa.sh.record(r, nil, src)
		pa.records++
	})
}

// Records returns how many trace records this Partial has folded.
func (pa *Partial) Records() uint64 {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.records
}

// Merger merges a growing set of Partials into Reports incrementally.
// Each Merge drains what the Partials folded since the last one into a
// persistent base shard, which therefore only ever holds settled records,
// never provisional state; everything provisional — pending runs, each
// timer's trailing pending use and the Figure 2 / Table 3 classification
// — goes to an overlay shard rebuilt for every view, and the Report is
// finished from base and overlay summed. A Merge thus costs the entries
// changed since the last one, one pass over the timer tables and the
// finish, instead of the whole history. Merge calls must not run
// concurrently; feeding the Partials may.
type Merger struct {
	p        Pipeline
	base, ov *shard
	// parts is how many Partials the Merger has drained.
	parts int
	// seen maps every timer ID checked so far to whether a second Partial
	// also holds it (then it counted once into collisions). A Partial
	// creates an ID at most once, so a second sighting is always another
	// Partial.
	seen       map[uint64]bool
	collisions int
	// given marks the Partials of the Merge in progress, true for those it
	// claimed; claim rebuilds it on every call.
	given map[*Partial]bool
}

// NewMerger returns a Merger for Partials of this pipeline configuration.
func (p Pipeline) NewMerger() *Merger {
	return &Merger{p: p, base: p.newShard(), ov: p.newShard(),
		seen: make(map[uint64]bool), given: make(map[*Partial]bool)}
}

// Merge returns the Report of every Partial merged in slice order — the
// order that defines the equivalent concatenated stream. Each Partial is
// read under its own lock: its accumulators drain into the base (copying,
// never aliasing, and left empty with their capacity), and its timer table
// folds read-only into the overlay, so the Partial keeps folding records
// once the lock is released. The Report shares no memory with the Merger.
//
// The merge also checks the determinism contract: Report.TimerIDCollisions
// is the number of distinct timer IDs present in more than one Partial.
// Each such ID is folded as separate timers, one per Partial, where a
// single Run over the concatenated streams would have folded one.
//
// Merge panics, before it drains anything, when a Partial already belongs
// to another Merger, when parts repeats a Partial, or when it leaves out
// one an earlier Merge drained.
func (m *Merger) Merge(parts []*Partial) *Report {
	m.claim(parts)
	m.ov.reset()
	concurrency, carried := 0, 0
	for _, pa := range parts {
		pa.mu.Lock()
		m.base.merge(pa.sh)
		pa.sh.reset()
		m.ov.foldFrom(pa.sh)
		if c := carried + pa.sh.maxOpen; c > concurrency {
			concurrency = c
		}
		carried += pa.sh.openCount
		m.checkIDs(pa)
		pa.mu.Unlock()
	}
	m.parts = len(parts)
	rep := m.p.report(m.base, m.ov, concurrency)
	rep.Series = slices.Clone(rep.Series) // report sorts the base's points in place
	rep.TimerIDCollisions = m.collisions
	return rep
}

// claim checks parts against the ownership contract before anything
// drains, and makes m the owner of the Partials no Merger owned yet. A
// call that breaks the contract panics with every Partial as it was: the
// ones claimed so far are released again.
func (m *Merger) claim(parts []*Partial) {
	clear(m.given)
	known := 0
	reject := func(msg string) {
		for _, pa := range parts {
			if m.given[pa] {
				pa.mu.Lock()
				pa.merger = nil
				pa.mu.Unlock()
			}
		}
		panic("analysis: " + msg)
	}
	for _, pa := range parts {
		if _, repeated := m.given[pa]; repeated {
			reject("Merge was given a Partial twice")
		}
		pa.mu.Lock()
		owner := pa.merger
		if owner == nil {
			pa.merger = m
		}
		pa.mu.Unlock()
		switch owner {
		case m:
			known++
		case nil:
		default:
			reject("Partial given to a second Merger; a Partial belongs to the Merger that first drained it")
		}
		m.given[pa] = owner == nil
	}
	if known != m.parts {
		reject("Merge must be given every Partial an earlier Merge drained")
	}
}

// checkIDs checks the timers pa created since the last merge, which its
// arena holds in creation order, for IDs another Partial holds.
func (m *Merger) checkIDs(pa *Partial) {
	for i := pa.checked; i < pa.sh.nTimers; i++ {
		id := pa.sh.timer(int32(i)).id
		if shared, ok := m.seen[id]; !ok {
			m.seen[id] = false
		} else if !shared {
			m.seen[id] = true
			m.collisions++
		}
	}
	pa.checked = pa.sh.nTimers
}

// MergePartials merges Partials once, through a fresh Merger, for callers
// that merge a finished set of streams a single time. It drains the
// Partials like any Merge, so they cannot be merged again.
func (p Pipeline) MergePartials(parts []*Partial) *Report {
	return p.NewMerger().Merge(parts)
}
