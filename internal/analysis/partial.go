package analysis

import (
	"sync"

	"timerstudy/internal/trace"
)

// Incremental analysis. A Partial is a pipeline shard that is fed chunks as
// they arrive — from a live ingest connection, a file replayed piecewise,
// or any other incremental source — instead of in one Run. At any moment a
// set of Partials can be merged into a finished Report without disturbing
// their live state: the merge reads each Partial under its lock and writes
// only a fresh output shard, so a trace service can answer queries
// mid-stream and keep folding records afterwards.
//
// Determinism contract: MergePartials over Partials fed one stream each is
// byte-identical to a single Run over the concatenation of those streams
// (in the same order), provided timer identities do not collide across
// streams; MergePartials counts the IDs that do into
// Report.TimerIDCollisions. Everything the fold produces is either per-timer (and a timer
// lives entirely inside one Partial), commutative-additive, or canonically
// sorted at finish — the same argument as RunParallel's — except
// Summary.Concurrency, which MergePartials reconstructs exactly: when
// stream i's records play after streams 0..i-1 ended, every timer those
// streams left open stays open forever, so the running pending count
// during stream i is (sum of earlier streams' still-open timers) + stream
// i's own count, and the global maximum is
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

// MergePartials merges every Partial into a finished Report while leaving
// the live state untouched. Partials must all come from this pipeline
// configuration and are merged in slice order — the order that defines the
// equivalent concatenated stream. Each Partial is read under its own lock:
// its accumulators merge (copying, never aliasing) into one fresh output
// shard, and its timer table folds read-only into that shard, so nothing is
// cloned and the Partial keeps folding records once the lock is released.
//
// The merge also checks the contract above: Report.TimerIDCollisions is the
// number of distinct timer IDs present in more than one Partial. Each such
// ID is folded as separate timers, one per Partial, where a single Run
// over the concatenated streams would have folded one.
func (p Pipeline) MergePartials(parts []*Partial) *Report {
	out := p.newShard()
	concurrency, carried := 0, 0
	// seen maps each timer ID met so far to whether it was already counted
	// as a collision.
	seen := make(map[uint64]bool)
	collisions := 0
	for _, pa := range parts {
		pa.mu.Lock()
		out.merge(pa.sh)
		out.foldFrom(pa.sh)
		if c := carried + pa.sh.maxOpen; c > concurrency {
			concurrency = c
		}
		carried += pa.sh.openCount
		for id := range pa.sh.byID {
			if counted, ok := seen[id]; !ok {
				seen[id] = false
			} else if !counted {
				seen[id] = true
				collisions++
			}
		}
		pa.mu.Unlock()
	}
	rep := p.report([]*shard{out}, concurrency)
	rep.TimerIDCollisions = collisions
	return rep
}
