package trace

import (
	"encoding/binary"

	"timerstudy/internal/sim"
)

// magic opens every trace stream; the version that follows it is 2 (see
// stream.go for the frame grammar).
const magic = "TSTR"

// RecordSize is the exact encoded size of one Record in bytes (fields in
// struct order plus padding to an 8-byte multiple). DESIGN.md §"Trace
// format" and DefaultCapacity both derive from this constant; a codec test
// asserts the stream writer really emits records of this size.
const RecordSize = 40

// putRecord encodes *r into dst (the caller provides RecordSize bytes of
// scratch). It takes a pointer because Record, at seven fields, is too wide
// for the compiler to keep in registers: a by-value argument is copied
// through the stack a second time. HashSink.Log folds the same layout field
// by field without encoding; TestHashSinkLogMatchesFNV holds the two
// together.
//
//lint:allocfree v2 record encoder: fixed-width stores into caller scratch
func putRecord(dst []byte, r *Record) {
	dst = dst[:RecordSize] // the one bounds check; every store below is proven in range
	le := binary.LittleEndian
	le.PutUint64(dst[0:], uint64(r.T))
	le.PutUint64(dst[8:], r.TimerID)
	le.PutUint64(dst[16:], uint64(r.Timeout))
	le.PutUint32(dst[24:], uint32(r.PID))
	le.PutUint32(dst[28:], r.Origin)
	// Op (byte 32), Flags (33..34) and the zero padding (35..39) as one
	// store (TestPutRecordMatchesFieldStores).
	le.PutUint64(dst[32:], uint64(r.Op)|uint64(r.Flags)<<8)
}

// decodeRecord decodes the first RecordSize bytes of s into *d, storing each
// field in place rather than building a Record to copy.
//
//lint:allocfree v2 record decoder: fixed-width loads into caller storage
func decodeRecord(d *Record, s []byte) {
	s = s[:RecordSize] // the one bounds check; every load below is proven in range
	le := binary.LittleEndian
	d.T = sim.Time(le.Uint64(s[0:]))
	d.TimerID = le.Uint64(s[8:])
	d.Timeout = int64(le.Uint64(s[16:]))
	d.PID = int32(le.Uint32(s[24:]))
	d.Origin = le.Uint32(s[28:])
	d.Op = Op(s[32])
	d.Flags = Flags(le.Uint16(s[33:]))
}

// maxReasonable bounds declared counts (origin tables, checkpoint hosts) so
// a corrupt stream cannot drive huge allocations.
const maxReasonable = 1 << 28
