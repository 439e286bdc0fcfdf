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

// putRecord encodes one record into dst (the caller provides RecordSize
// bytes of scratch). HashSink.Log folds the same layout field by field
// without encoding; TestHashSinkLogMatchesFNV holds the two together.
//
//lint:allocfree v2 record encoder: fixed-width stores into caller scratch
func putRecord(dst []byte, r Record) {
	le := binary.LittleEndian
	le.PutUint64(dst[0:], uint64(r.T))
	le.PutUint64(dst[8:], r.TimerID)
	le.PutUint64(dst[16:], uint64(r.Timeout))
	le.PutUint32(dst[24:], uint32(r.PID))
	le.PutUint32(dst[28:], r.Origin)
	dst[32] = byte(r.Op)
	le.PutUint16(dst[33:], uint16(r.Flags))
	// bytes 35..39 are padding, kept zero.
	dst[35], dst[36], dst[37], dst[38], dst[39] = 0, 0, 0, 0, 0
}

func getRecord(src []byte) Record {
	le := binary.LittleEndian
	return Record{
		T:       sim.Time(le.Uint64(src[0:])),
		TimerID: le.Uint64(src[8:]),
		Timeout: int64(le.Uint64(src[16:])),
		PID:     int32(le.Uint32(src[24:])),
		Origin:  le.Uint32(src[28:]),
		Op:      Op(src[32]),
		Flags:   Flags(le.Uint16(src[33:])),
	}
}

// maxReasonable bounds declared counts (origin tables, checkpoint hosts) so
// a corrupt stream cannot drive huge allocations.
const maxReasonable = 1 << 28
