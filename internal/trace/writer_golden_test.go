package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"timerstudy/internal/sim"
)

// writerGoldenSequence drives a StreamWriter through every shape the v2
// frames can take: origins interned before and between records, a
// mid-chunk Flush, an out-of-range op, and origins interned after the last
// record, which only the Close flush carries.
func writerGoldenSequence(sw *StreamWriter) error {
	a := sw.Origin("kernel/tcp:retransmit")
	b := sw.Origin("Xorg/select")
	for i := 0; i < 5; i++ {
		o := a
		if i%2 == 1 {
			o = b
		}
		sw.Log(Record{
			T: sim.Time(1000 * i), TimerID: uint64(0xfeed0000 + i), Op: Op(i % int(nOps)),
			Origin: o, Timeout: int64(i) * int64(sim.Millisecond), PID: int32(100 + i), Flags: Flags(i),
		})
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	c := sw.Origin("late/origin")
	sw.Log(Record{T: 9000, TimerID: 7, Op: Op(200), Origin: c, Timeout: -1, PID: -1, Flags: 0xffff})
	sw.Log(Record{T: 9001, TimerID: 8, Op: OpExpire, Origin: a})
	sw.Origin("trailing/one")
	sw.Origin("trailing/two")
	return sw.Close()
}

// TestStreamWriterGoldenBytes pins the writer's exact output at chunk sizes
// that split every frame (1), straddle the mid-chunk Flush (3) and hold the
// whole sequence (the default), so a change to how records reach the frame
// buffer cannot move a byte unnoticed.
func TestStreamWriterGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		chunk int
		size  int
		want  string
	}{
		{1, 490, "cba086d3f39cc99a3803bc13dfed858f3c28bcddb199599c1aaf9071b566937d"},
		{3, 465, "6462c367dc9791b4f19b2e29752db5be5c15e6a245fb2f057aa71799fc296aba"},
		{DefaultChunkRecords, 460, "0d0e0c4935e150dc841182320ab33a7ae1bb5605c156931fa8da8a88e7406040"},
	} {
		var buf bytes.Buffer
		if err := writerGoldenSequence(NewStreamWriterSize(&buf, tc.chunk)); err != nil {
			t.Fatalf("chunk %d: %v", tc.chunk, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.want {
			t.Errorf("chunk %d: %d bytes, digest %s; want %d bytes, %s", tc.chunk, buf.Len(), got, tc.size, tc.want)
		}
	}
}
