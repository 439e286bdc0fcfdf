package sim

import (
	"math/rand"
	"sort"
)

// Engine state export for the control plane's checkpoints (internal/control).
//
// A checkpoint cannot serialize the engine's pending callbacks — they are
// closures over live workload state — so checkpoint/resume in this codebase
// is replay-based: a resumed run rebuilds the fleet from its seed, fast-
// forwards deterministically to the keyframe window, and then VERIFIES that
// the reconstructed engines match the serialized keyframe exactly. State()
// is that verification surface: the clock, the scheduling sequence counter,
// the full pending-event set (folded in canonical order to one hash), the
// RNG position and the accounting stats. Two engines that agree
// on State() have byte-identical futures for the same inputs.

// countingSource wraps the engine's random source and counts raw draws.
// It forwards both Source interfaces verbatim, so the delivered stream is
// bit-identical to an unwrapped rand.NewSource — wrapping changes no trace.
// The draw count is the serializable half of the RNG state: (seed, draws)
// reconstructs the source exactly by fast-forwarding.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// RandDraws returns how many raw values the engine's random source has
// produced. Together with the construction seed it pins the RNG state: two
// engines built from the same seed with equal draw counts are at the same
// stream position.
func (e *Engine) RandDraws() uint64 { return e.src.draws }

// Resume clears a Stop: Run/Step/AdvanceUntil execute events again. Pending
// events survive a Stop/Resume cycle untouched, so a resumed engine first
// catches up on the backlog — the fleet uses this for deterministic host
// kill/restart (see SkipTo for the clock semantics of a restart).
func (e *Engine) Resume() { e.stopped = false }

// SkipTo advances the clock to t without executing events, accounting the
// gap as idle time. Events pending before t are not lost: they fire on the
// next Run/AdvanceUntil, late, at the advanced clock — the behaviour of a
// machine whose timers expired while it was powered off. The fleet calls
// this on host restart so the host rejoins at the barrier instant instead
// of sending from a clock in the other hosts' past. A no-op for t <= now.
func (e *Engine) SkipTo(t Time) {
	if t > e.now {
		e.stats.IdleTime += t.Sub(e.now)
		e.now = t
	}
}

// EngineState is the serializable summary of an engine's dynamic state.
type EngineState struct {
	// Now is the engine clock.
	Now Time
	// Seq is the scheduling sequence counter (total At/After/Reschedule
	// calls so far); it participates in FIFO tie-breaks, so two engines
	// with different Seq can diverge even with equal pending sets.
	Seq uint64
	// Pending is the number of queued events.
	Pending int
	// EventsHash folds the pending-event set — every (when, seq, name)
	// triple in (when, seq) order — into one FNV-1a 64 value, so it does
	// not depend on the heap's internal layout.
	EventsHash uint64
	// RandDraws is the RNG stream position (see Engine.RandDraws).
	RandDraws uint64
	// Stats is the accounting snapshot.
	Stats Stats
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// State captures the engine's dynamic state. It is a read-only walk — the
// queue is not disturbed — and deliberately cold-path: it allocates a
// scratch slice to sort the pending set into the canonical (when, seq)
// order before hashing.
func (e *Engine) State() EngineState {
	events := e.pendingSorted()
	h := uint64(fnvOffset64)
	for _, n := range events {
		h = fnvUint64(h, uint64(n.when))
		h = fnvUint64(h, n.seq)
		h = fnvString(h, n.name)
	}
	return EngineState{
		Now:        e.now,
		Seq:        e.seq,
		Pending:    len(events),
		EventsHash: h,
		RandDraws:  e.RandDraws(),
		Stats:      e.stats,
	}
}

// pendingSorted copies the queued nodes into canonical (when, seq) order.
func (e *Engine) pendingSorted() []*event {
	events := append([]*event(nil), e.queue.items...)
	sort.Slice(events, func(i, j int) bool { return eventLess(events[i], events[j]) })
	return events
}

// ForEachPending calls fn for every queued event in canonical (when, seq)
// order with the event's schedule instant and diagnostic name. Like State
// it is a cold-path diagnostic walk.
func (e *Engine) ForEachPending(fn func(when Time, name string)) {
	events := e.pendingSorted()
	for _, n := range events {
		fn(n.when, n.name)
	}
}
