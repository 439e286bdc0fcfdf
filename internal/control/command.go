// Package control is the deterministic control plane over a fleet
// simulation: a bounded command queue, window-boundary command application,
// patch feed, and replay-based checkpoint/resume.
//
// The design follows the staged-input game-loop idiom: callers Enqueue
// commands at any wall-clock moment, the plane stamps each accepted command
// with the virtual window boundary it will apply at, and Advance drains due
// commands only at that boundary — the fleet session's serial barrier,
// where no worker owns host state. Virtual time therefore never sees
// wall-clock arrival order: two runs fed the same (seed, command log) are
// byte-identical at any worker count, which is what makes interactive runs
// replayable and checkpoints verifiable.
package control

import (
	"encoding/binary"
	"fmt"
	"io"

	"timerstudy/internal/sim"
)

// Kind enumerates the steering commands the plane understands.
type Kind uint8

const (
	// KindSpike multiplies desktop request rates by Arg for Dur of
	// virtual time (fleet.DirSpike). Host -1 targets every desktop.
	KindSpike Kind = iota + 1
	// KindKill powers a host off at the boundary (Host.Kill).
	KindKill
	// KindRestart powers a killed host back on (Host.Restart).
	KindRestart
	// KindPolicy switches the desktop request-timeout policy: Arg 0 =
	// fixed 30 s, Arg 1 = adaptive RTT-tracking (fleet.DirPolicy).
	KindPolicy
	// KindCoalesce sets a host's periodic-timer coalescing window to Arg
	// nanoseconds (fleet.DirCoalesce).
	KindCoalesce

	kindEnd // one past the last valid kind
)

// String names the kind for logs and patches.
func (k Kind) String() string {
	switch k {
	case KindSpike:
		return "spike"
	case KindKill:
		return "kill"
	case KindRestart:
		return "restart"
	case KindPolicy:
		return "policy"
	case KindCoalesce:
		return "coalesce"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a command name to its Kind.
func ParseKind(s string) (Kind, error) {
	for k := KindSpike; k < kindEnd; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("control: unknown command kind %q", s)
}

// Command is one steering instruction. Seq and Window are stamped by the
// plane on accept; the rest is caller input.
type Command struct {
	// Seq is the accept order, unique per plane, assigned by Enqueue.
	Seq uint64
	// Window is the fleet window boundary the command applies at.
	// Enqueue stamps 0 to the next boundary; non-zero must not be in the
	// past. Commands at one boundary apply in Seq order.
	Window uint64
	// Kind selects the operation.
	Kind Kind
	// Host is the target host index, or -1 for every host that accepts
	// the directive.
	Host int32
	// Arg is the kind-specific operand.
	Arg int64
	// Dur bounds the effect in virtual time, for kinds that expire.
	Dur sim.Duration
}

// The command-log wire format — the 'L' payload of a checkpoint and the
// -record-commands/-replay-commands file format:
//
//	magic "TCMD" | version u32 = 1 | count u32 |
//	count × (seq u64 | window u64 | kind u8 | host i32 | arg i64 | dur i64)
//
// Fixed-size records, strict decode: implausible counts, short reads and
// trailing garbage are errors.
const (
	commandMagic   = "TCMD"
	commandVersion = 1
	commandRecSize = 8 + 8 + 1 + 4 + 8 + 8

	// maxCommandLog bounds the records a decoder will materialize.
	maxCommandLog = 1 << 20
)

// EncodeCommands serializes a command log.
func EncodeCommands(cmds []Command) []byte {
	buf := make([]byte, 0, 12+len(cmds)*commandRecSize)
	buf = append(buf, commandMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, commandVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cmds)))
	for _, c := range cmds {
		buf = binary.LittleEndian.AppendUint64(buf, c.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, c.Window)
		buf = append(buf, byte(c.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Host))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Arg))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Dur))
	}
	return buf
}

// DecodeCommands parses a command log, rejecting malformed input with an
// error (never a panic).
func DecodeCommands(data []byte) ([]Command, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("control: command log truncated at byte offset %d: %w", len(data), io.ErrUnexpectedEOF)
	}
	if string(data[0:4]) != commandMagic {
		return nil, fmt.Errorf("control: bad command-log magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != commandVersion {
		return nil, fmt.Errorf("control: unsupported command-log version %d", v)
	}
	count := binary.LittleEndian.Uint32(data[8:])
	if count > maxCommandLog {
		return nil, fmt.Errorf("control: implausible command-log count (%d)", count)
	}
	want := 12 + int(count)*commandRecSize
	if len(data) < want {
		return nil, fmt.Errorf("control: command log truncated at byte offset %d (need %d): %w", len(data), want, io.ErrUnexpectedEOF)
	}
	if len(data) > want {
		return nil, fmt.Errorf("control: trailing garbage after command log at byte offset %d", want)
	}
	cmds := make([]Command, 0, count)
	for i := uint32(0); i < count; i++ {
		rec := data[12+int(i)*commandRecSize:]
		cmds = append(cmds, Command{
			Seq:    binary.LittleEndian.Uint64(rec),
			Window: binary.LittleEndian.Uint64(rec[8:]),
			Kind:   Kind(rec[16]),
			Host:   int32(binary.LittleEndian.Uint32(rec[17:])),
			Arg:    int64(binary.LittleEndian.Uint64(rec[21:])),
			Dur:    sim.Duration(binary.LittleEndian.Uint64(rec[29:])),
		})
	}
	return cmds, nil
}
