// Package trace is the reproduction's relayfs/ETW analog: a bounded,
// in-memory binary event buffer recording every operation on every timer in
// a simulated system, together with the "call stack" information the paper's
// instrumentation captures (here: interned origin labels and process IDs).
//
// The design follows Section 3 of the paper:
//
//   - fixed-width binary records in a preallocated buffer (relayfs used a
//     512 MiB kernel buffer; we default to the equivalent record count),
//   - new events are dropped, never overwriting old ones, when full,
//   - records carry timestamp, operation, timer identity, process, origin
//     and the timeout value, which is everything the Section 4 analyses
//     need.
package trace

import (
	"fmt"
	"sort"
)
import "timerstudy/internal/sim"

// Op is the traced timer operation.
type Op uint8

const (
	// OpInit records timer-structure initialization (Linux init_timer).
	OpInit Op = iota
	// OpSet records arming a timer (__mod_timer / KeSetTimer / a syscall
	// supplying a timeout). Record.Timeout holds the relative timeout.
	OpSet
	// OpCancel records cancelation of a pending timer (del_timer /
	// KeCancelTimer / satisfied wait).
	OpCancel
	// OpExpire records delivery of a timer expiry (callback run, DPC
	// queued, wait timed out).
	OpExpire
	// OpWait records a thread blocking with a timeout (Vista wait fast
	// path; Linux schedule_timeout). It always pairs with a later OpCancel
	// (wait satisfied) or OpExpire (wait timed out) on the same TimerID.
	OpWait
	nOps
)

var opNames = [...]string{"init", "set", "cancel", "expire", "wait"}

// String returns the lower-case operation name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Flags annotate a record.
type Flags uint16

const (
	// FlagUser marks operations performed on behalf of user space (explicit
	// timer syscalls and timeouts passed to blocking syscalls). Unset means
	// a kernel-internal timer.
	FlagUser Flags = 1 << iota
	// FlagDeferrable marks Linux deferrable timers (2.6.22 feature).
	FlagDeferrable
	// FlagAbsolute marks a set with an absolute due time (Vista allows
	// both; Linux __mod_timer is always absolute in jiffies — the flag
	// records what the *caller* supplied).
	FlagAbsolute
	// FlagPeriodic marks a Vista periodic KTIMER set.
	FlagPeriodic
	// FlagSatisfied marks an OpCancel that ended a wait because the waited
	// object was signaled (rather than an explicit cancel).
	FlagSatisfied
)

// Record is one traced operation. Its binary layout in a stream's record
// frames (putRecord/decodeRecord) is RecordSize (40) bytes, little-endian.
type Record struct {
	T       sim.Time // virtual timestamp
	TimerID uint64   // timer structure identity ("address")
	Timeout int64    // ns; relative timeout at OpSet/OpWait, 0 otherwise
	PID     int32    // owning process, 0 for the kernel
	Origin  uint32   // interned origin label (the "stack trace")
	Op      Op
	Flags   Flags
}

// IsUser reports whether the record was produced on behalf of user space.
func (r Record) IsUser() bool { return r.Flags&FlagUser != 0 }

// Counters tallies operations even when records are dropped or the buffer
// stores nothing; the Section 3.2 overhead experiment compares these between
// runs.
type Counters struct {
	ByOp    [nOps]uint64
	Total   uint64
	Dropped uint64
	// Unknown tallies records whose Op is outside the defined enum (possible
	// only through sink misuse or a decoded trace from a future version).
	// Every sink maintains the invariant sum(ByOp) + Unknown == Total, which
	// the v2 footer preserves on disk.
	Unknown uint64
}

// Buffer is the trace sink. A Buffer with capacity 0 counts operations but
// stores no records (the "tracing disabled" configuration of the overhead
// experiment). Buffers are not safe for concurrent use; simulations are
// single-threaded.
type Buffer struct {
	records  []Record
	cap      int
	origins  []string
	originID map[string]uint32
	counters Counters
}

// DefaultCapacity mirrors the paper's 512 MiB relayfs buffer at our
// RecordSize-byte record size.
const DefaultCapacity = 512 << 20 / RecordSize

// preallocRecords bounds the record storage reserved eagerly at NewBuffer:
// enough that short runs never grow the slice on the Log hot path, small
// enough (2.5 MiB) that nine parallel full-capacity buffers don't commit
// 512 MiB each up front. Buffers that outgrow it pay amortized append
// growth, exactly as before.
const preallocRecords = 1 << 16

// NewBuffer returns a buffer holding at most capRecords records.
func NewBuffer(capRecords int) *Buffer {
	b := &Buffer{cap: capRecords, originID: make(map[string]uint32)}
	if n := min(capRecords, preallocRecords); n > 0 {
		b.records = make([]Record, 0, n)
	}
	// Origin 0 is reserved for "unknown".
	b.origins = append(b.origins, "?")
	return b
}

// Origin interns an origin label and returns its ID. Labels play the role of
// the paper's kernel/user call stacks: they identify the code that operated
// on the timer (e.g. "kernel/tcp:retransmit" or "firefox/select").
func (b *Buffer) Origin(name string) uint32 {
	if id, ok := b.originID[name]; ok {
		return id
	}
	id := uint32(len(b.origins))
	b.origins = append(b.origins, name)
	b.originID[name] = id
	return id
}

// OriginName resolves an origin ID; unknown IDs resolve to "?".
func (b *Buffer) OriginName(id uint32) string {
	if int(id) < len(b.origins) {
		return b.origins[id]
	}
	return b.origins[0]
}

// Origins returns all interned origin labels, sorted.
func (b *Buffer) Origins() []string {
	out := make([]string, len(b.origins))
	copy(out, b.origins)
	sort.Strings(out)
	return out
}

// Log appends a record, dropping it (but still counting) if the buffer is
// full — relayfs semantics: old data is never overwritten.
//
//lint:allocfree per-record hot path; the capped backing array is preallocated by NewBuffer (TestLogZeroAlloc)
func (b *Buffer) Log(r Record) {
	if int(r.Op) < int(nOps) {
		b.counters.ByOp[r.Op]++
	} else {
		b.counters.Unknown++
	}
	b.counters.Total++
	if len(b.records) >= b.cap {
		b.counters.Dropped++
		return
	}
	b.records = append(b.records, r)
}

// Len returns the number of stored records.
func (b *Buffer) Len() int { return len(b.records) }

// Records returns the stored records. The slice aliases the buffer; callers
// must not mutate it.
func (b *Buffer) Records() []Record { return b.records }

// Counters returns a copy of the operation tallies.
func (b *Buffer) Counters() Counters { return b.counters }

// Reset discards stored records and counters but keeps interned origins, so
// origin IDs remain stable across phases of one experiment.
func (b *Buffer) Reset() {
	b.records = b.records[:0]
	b.counters = Counters{}
}
