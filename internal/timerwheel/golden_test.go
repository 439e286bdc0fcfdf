package timerwheel

import (
	"fmt"
	"math/rand"
	"testing"
)

// goldenOps is the length of the pinned operation sequence.
const goldenOps = 50_000

// goldenExpiry draws a relative expiry that reaches every hierarchical
// level: mostly tv1 and tv2, some tv3 and tv4, a few tv5, a few beyond the
// wheel's maximum interval (where the wheel caps them) and a few in the
// past (which fire on the next tick).
func goldenExpiry(rng *rand.Rand, now uint64) uint64 {
	switch p := rng.Intn(100); {
	case p < 45:
		return now + uint64(rng.Intn(tvrSize))
	case p < 70:
		return now + uint64(rng.Intn(1<<(tvrBits+tvnBits)))
	case p < 82:
		return now + uint64(rng.Intn(1<<(tvrBits+2*tvnBits)))
	case p < 90:
		return now + uint64(rng.Intn(1<<(tvrBits+3*tvnBits)))
	case p < 94:
		return now + uint64(rng.Int63n(1<<(tvrBits+4*tvnBits)))
	case p < 97:
		return now + 1<<(tvrBits+4*tvnBits) + uint64(rng.Int63n(1<<40))
	default:
		return now - min(now, uint64(rng.Intn(64)))
	}
}

// farTimers is how many of a run's timers are armed only while idle, far
// ahead, and never cancelled: they live through the cascades of the outer
// level they are filed in and fire from it. Timers that random operations
// pick are almost always moved or cancelled before a distant expiry.
const farTimers = 16

// farExpiry draws a far timer's expiry, 2^14 to 2^14+2^21 ticks ahead: in
// tv3 or tv4.
func farExpiry(rng *rand.Rand, now uint64) uint64 {
	return now + 1<<(tvrBits+tvnBits) + uint64(rng.Int63n(1<<21))
}

// goldenRun drives q with the seeded schedule/cancel/advance sequence and
// returns an FNV-1a digest of every (tick, payload) it fires, in order,
// with the fired count and the final Len. An advance either steps tick by
// tick or makes one Advance call over the whole span; fire re-arms some
// timers beyond the span, as a periodic kernel timer does. Over the run the
// clock passes 2^20 ticks, so tv2, tv3 and tv4 of the hierarchical wheel
// cascade; timers in tv5 and beyond the cap are filed, moved and cancelled.
func goldenRun(q Queue) (digest uint64, fired, pending int, now uint64) {
	rng := rand.New(rand.NewSource(20_08))
	timers := make([]*Timer, 1024)
	for i := range timers {
		timers[i] = &Timer{Payload: uint32(i)}
	}
	digest = fnvOffset
	var tick uint64
	fire := func(t *Timer) {
		fired++
		digest = fnvWord(fnvWord(digest, tick), uint64(t.Payload.(uint32)))
		if fired%5 == 0 {
			q.Schedule(t, tick+1+uint64(fired%300))
		}
	}
	near := len(timers) - farTimers
	for op := 0; op < goldenOps; op++ {
		switch p := rng.Intn(100); {
		case p < 50:
			q.Schedule(timers[rng.Intn(near)], goldenExpiry(rng, now))
		case p < 52:
			if t := timers[near+rng.Intn(farTimers)]; !t.Pending() {
				q.Schedule(t, farExpiry(rng, now))
			}
		case p < 72:
			q.Cancel(timers[rng.Intn(near)])
		default:
			var span uint64
			switch s := rng.Intn(100); {
			case s < 90:
				span = uint64(rng.Intn(32) + 1)
			case s < 99:
				span = uint64(rng.Intn(1024) + 1)
			default:
				span = uint64(rng.Intn(1<<(tvrBits+tvnBits)) + 1)
			}
			if rng.Intn(2) == 0 {
				for end := now + span; now < end; {
					now++
					tick = now
					q.Advance(now, fire)
				}
			} else {
				now += span
				tick = now
				q.Advance(now, fire)
			}
		}
	}
	return digest, fired, q.Len(), now
}

const fnvOffset = 14695981039346656037

// fnvWord folds v's eight little-endian bytes into an FNV-1a 64 digest.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= 1099511628211
	}
	return h
}

// TestFiredOrderGolden pins, for every Queue, the exact order in which one
// long seeded operation sequence fires its timers: the tick and payload of
// every expiry, same-tick order included. The digests were recorded before
// the wheel's list heads shrank to one pointer and its outer levels became
// lazily built, so any change to list order, cascade order or level
// placement shows here.
func TestFiredOrderGolden(t *testing.T) {
	want := map[string]string{
		"sorted-list":        "ddcd3bd25384c18d fired=21559 pending=237",
		"binary-heap":        "ddcd3bd25384c18d fired=21559 pending=237",
		"simple-wheel":       "ddcd3bd25384c18d fired=21559 pending=237",
		"hashed-wheel":       "ddcd3bd25384c18d fired=21559 pending=237",
		"hierarchical-wheel": "283b519ea5fc27c9 fired=21560 pending=238",
	}
	for name, q := range allQueues() {
		t.Run(name, func(t *testing.T) {
			d, fired, pending, now := goldenRun(q)
			if now <= 1<<(tvrBits+2*tvnBits) {
				t.Fatalf("the run ends at tick %d, short of tv4's first cascade", now)
			}
			if w, ok := q.(*HierarchicalWheel); ok && w.tvn[3] == nil {
				t.Error("no timer reached tv5")
			}
			got := fmt.Sprintf("%016x fired=%d pending=%d", d, fired, pending)
			if got != want[name] {
				t.Errorf("fired sequence %s, want %s", got, want[name])
			}
		})
	}
}
