package trace

// HashSink is a Sink that stores nothing and instead folds every record —
// and every origin interning, in order — into a running FNV-1a 64 digest.
// Two simulations produce the same Sum64 iff they would have produced
// byte-identical Buffer contents (same record bytes in the same order, same
// origin table in the same intern order), which is exactly the fleet's
// per-host determinism contract. At 10k hosts a Buffer per host does not fit
// in memory; a HashSink is 8 bytes of state plus its origin table.
//
// The origin table is the interned labels in ID order. Up to
// originScanMax labels a lookup scans them, which for a host's few dozen
// labels is cheaper to hold than a map's buckets; a sink that interns more
// indexes them all in a map, so lookups never go quadratic.
//
// Like every Sink it maintains full Counters, so overhead accounting and the
// sum(ByOp)+Unknown == Total invariant survive the switch from Buffer.
type HashSink struct {
	h       uint64
	origins []string
	// originID indexes origins once they outgrow originScanMax; nil before.
	originID map[string]uint32
	counters Counters
	scratch  [RecordSize]byte
}

// originScanMax is the most labels an origin lookup scans.
const originScanMax = 64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

var _ Sink = (*HashSink)(nil)

// NewHashSink returns a digest-only sink. Origin 0 is pre-interned as "?"
// and folded, mirroring NewBuffer, so a HashSink and a Buffer fed the same
// operations agree on every origin ID.
func NewHashSink() *HashSink {
	s := &HashSink{h: fnvOffset64}
	s.origins = append(s.origins, "?")
	s.fold([]byte("?"))
	s.foldU32(0)
	return s
}

//lint:allocfree digest fold over caller-owned bytes
func (s *HashSink) fold(b []byte) {
	h := s.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	s.h = h
}

//lint:allocfree four fixed byte folds
func (s *HashSink) foldU32(v uint32) {
	h := s.h
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	s.h = h
}

// Origin interns an origin label, folding the label bytes and assigned ID
// into the digest on first intern (re-interning an existing label is a pure
// lookup, matching Buffer).
func (s *HashSink) Origin(name string) uint32 {
	if id, ok := s.lookup(name); ok {
		return id
	}
	id := uint32(len(s.origins))
	s.origins = append(s.origins, name)
	switch {
	case s.originID != nil:
		s.originID[name] = id
	case len(s.origins) > originScanMax:
		s.originID = make(map[string]uint32, 2*len(s.origins))
		for i, o := range s.origins[1:] {
			s.originID[o] = uint32(i + 1)
		}
	}
	s.fold([]byte(name))
	s.foldU32(id)
	return id
}

// lookup returns name's ID if it is interned. Origin 0, the reserved "?",
// is never a match: interning "?" gives it an ID of its own, as in Buffer.
func (s *HashSink) lookup(name string) (uint32, bool) {
	if s.originID != nil {
		id, ok := s.originID[name]
		return id, ok
	}
	for i, o := range s.origins[1:] {
		if o == name {
			return uint32(i + 1), true
		}
	}
	return 0, false
}

// OriginName resolves an origin ID; unknown IDs resolve to "?".
func (s *HashSink) OriginName(id uint32) string {
	if int(id) < len(s.origins) {
		return s.origins[id]
	}
	return s.origins[0]
}

// Log folds the record's exact 40-byte encoding into the digest and counts
// it. Nothing is stored, so nothing is ever dropped.
//
//lint:allocfree per-record hot path: putRecord into fixed scratch, then fold
func (s *HashSink) Log(r Record) {
	if int(r.Op) < int(nOps) {
		s.counters.ByOp[r.Op]++
	} else {
		s.counters.Unknown++
	}
	s.counters.Total++
	putRecord(s.scratch[:], r)
	s.fold(s.scratch[:])
}

// Sum64 returns the digest over everything logged and interned so far.
func (s *HashSink) Sum64() uint64 { return s.h }

// Counters returns a copy of the operation tallies.
func (s *HashSink) Counters() Counters { return s.counters }
