package trace

import "timerstudy/internal/fnv1a"

// HashSink is a Sink that stores nothing and instead folds every record —
// and every origin interning, in order — into a running FNV-1a 64 digest.
// Two simulations produce the same Sum64 iff they would have produced
// byte-identical Buffer contents (same record bytes in the same order, same
// origin table in the same intern order), which is exactly the fleet's
// per-host determinism contract. At 10k hosts a Buffer per host does not fit
// in memory; a HashSink is 8 bytes of state plus its origin table.
//
// The origin table is the interned labels in ID order, held in blocks of
// originBlock: the table grows a block at a time and never copies, so it
// leaves fewer than originBlock slots unused and, unlike a slice grown by
// append, no garbage behind. Up to originScanMax labels a lookup scans
// them, which for a host's few dozen labels is cheaper to hold than a map's
// buckets; a sink that interns more indexes them all in a map, so lookups
// never go quadratic.
//
// Like every Sink it maintains full Counters, so overhead accounting and the
// sum(ByOp)+Unknown == Total invariant survive the switch from Buffer.
type HashSink struct {
	h       uint64
	origins []*[originBlock]string
	n       uint32 // labels interned, "?" included
	// originID indexes origins once they outgrow originScanMax; nil before.
	originID map[string]uint32
	counters Counters
}

// originScanMax is the most labels an origin lookup scans.
const originScanMax = 64

// originBlock is how many labels one block of the origin table holds.
const originBlock = 8

var _ Sink = (*HashSink)(nil)

// NewHashSink returns a digest-only sink. Origin 0 is pre-interned as "?"
// and folded, mirroring NewBuffer, so a HashSink and a Buffer fed the same
// operations agree on every origin ID.
func NewHashSink() *HashSink {
	s := &HashSink{h: fnv1a.Offset64, origins: make([]*[originBlock]string, 0, originScanMax/originBlock)}
	s.foldOrigin("?", s.add("?"))
	return s
}

// foldOrigin folds a newly interned label's bytes and its 4-byte ID.
func (s *HashSink) foldOrigin(name string, id uint32) {
	s.h = fnv1a.Uint(fnv1a.String(s.h, name), uint64(id), 4)
}

// Origin interns an origin label, folding the label bytes and assigned ID
// into the digest on first intern (re-interning an existing label is a pure
// lookup, matching Buffer).
func (s *HashSink) Origin(name string) uint32 {
	if id, ok := s.lookup(name); ok {
		return id
	}
	id := s.add(name)
	switch {
	case s.originID != nil:
		s.originID[name] = id
	case s.n > originScanMax:
		s.originID = make(map[string]uint32, 2*s.n)
		for id := uint32(1); id < s.n; id++ {
			s.originID[s.name(id)] = id
		}
	}
	s.foldOrigin(name, id)
	return id
}

// add appends name to the origin table and returns its ID.
func (s *HashSink) add(name string) uint32 {
	id := s.n
	if id%originBlock == 0 {
		s.origins = append(s.origins, new([originBlock]string))
	}
	s.origins[id/originBlock][id%originBlock] = name
	s.n++
	return id
}

// name returns the label of an interned ID.
func (s *HashSink) name(id uint32) string { return s.origins[id/originBlock][id%originBlock] }

// lookup returns name's ID if it is interned. Origin 0, the reserved "?",
// is never a match: interning "?" gives it an ID of its own, as in Buffer.
func (s *HashSink) lookup(name string) (uint32, bool) {
	if s.originID != nil {
		id, ok := s.originID[name]
		return id, ok
	}
	for id := uint32(1); id < s.n; id++ {
		if s.name(id) == name {
			return id, true
		}
	}
	return 0, false
}

// OriginName resolves an origin ID; unknown IDs resolve to "?".
func (s *HashSink) OriginName(id uint32) string {
	if id < s.n {
		return s.name(id)
	}
	return s.name(0)
}

// Log folds the record's exact 40-byte encoding (see putRecord) into the
// digest and counts it. Nothing is stored, so nothing is ever dropped.
//
// The fields are folded straight from r, in encoding order, each as the
// little-endian integer putRecord stores, so a field's zero high bytes cost
// one multiply. Op, Flags and the five zero padding bytes are the record's
// last 8 bytes: one integer whose zero tail is one multiply.
//
//lint:allocfree per-record hot path: field folds, no encoding
func (s *HashSink) Log(r Record) {
	if int(r.Op) < int(nOps) {
		s.counters.ByOp[r.Op]++
	} else {
		s.counters.Unknown++
	}
	s.counters.Total++
	h := fnv1a.Uint(s.h, uint64(r.T), 8)
	h = fnv1a.Uint(h, r.TimerID, 8)
	h = fnv1a.Uint(h, uint64(r.Timeout), 8)
	h = fnv1a.Uint(h, uint64(uint32(r.PID)), 4)
	h = fnv1a.Uint(h, uint64(r.Origin), 4)
	s.h = fnv1a.Uint(h, uint64(r.Op)|uint64(r.Flags)<<8, 8)
}

// Sum64 returns the digest over everything logged and interned so far.
func (s *HashSink) Sum64() uint64 { return s.h }

// Counters returns a copy of the operation tallies.
func (s *HashSink) Counters() Counters { return s.counters }
