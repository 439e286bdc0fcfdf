package fleet

import "timerstudy/internal/trace"

// Keyframe captures every host's verification state in index order: the
// engine summary (clock, scheduling sequence, pending-set hash, RNG
// position), the trace digest and counters, and the up/down flag. Taken at
// a session barrier it is a complete identity check for the run so far —
// the payload of a control-plane checkpoint (see internal/control and the
// replay-based resume design in sim.EngineState's docs).
func (f *Fleet) Keyframe() []trace.CheckpointHost {
	hosts := make([]trace.CheckpointHost, len(f.hosts))
	for i, h := range f.hosts {
		st := h.Eng.State()
		ch := trace.CheckpointHost{
			Name:       h.Name,
			Clock:      int64(st.Now),
			Seq:        st.Seq,
			Pending:    uint32(st.Pending),
			EventsHash: st.EventsHash,
			RandDraws:  st.RandDraws,
			Down:       h.Down,
		}
		if hs, ok := firstHashSink(h.Sink); ok {
			ch.Digest = hs.Sum64()
		}
		if c, ok := h.Sink.(interface{ Counters() trace.Counters }); ok {
			ch.Counters = c.Counters()
		}
		hosts[i] = ch
	}
	return hosts
}
