package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"timerstudy/internal/fnv1a"
)

// Checkpoint codec: the on-disk keyframe format of the control plane
// (internal/control). A checkpoint is NOT a serialized heap — the engines'
// pending callbacks are closures and cannot cross a process boundary — it
// is the verification record of a deterministic run at one window boundary:
// enough to rebuild the run from its seed, fast-forward to the keyframe,
// and prove bit-for-bit that the reconstruction reached the same state
// before continuing. The framing reuses the v2 stream idioms: typed
// length-carrying frames after a magic+version header, strict error-not-
// panic decoding, implausibility bounds on every count, and a mandatory
// terminator (here a whole-file FNV-1a checksum) so truncation and trailing
// garbage are always detected:
//
//	header: magic "TCKP" | version u32 = 1
//	frames, repeated:
//	  'M' | seed i64 | window u64 | vtime i64 | host count u32 |
//	      label (u32 len | bytes) | config (u32 len | bytes)
//	      run metadata; exactly once, first. Config is an opaque blob the
//	      writer uses to rebuild the topology (the control plane stores
//	      JSON); the codec does not interpret it.
//	  'L' | u32 len | bytes
//	      the command log, opaque to this codec (internal/control encodes
//	      it); at most once.
//	  'H' | u32 count | count × host entries
//	      a chunk of per-host keyframe states, in host-index order across
//	      all 'H' frames. Chunked like v2 'R' frames so a 10k-host
//	      checkpoint never needs one giant frame.
//	  'E' | fnv64 u64
//	      terminator: FNV-1a 64 over every preceding byte including the
//	      header; exactly once, last. A file without it is truncated,
//	      bytes after it are garbage — both decode errors.
//
//	host entry: name (u32 len | bytes) | clock i64 | seq u64 |
//	    pending u32 | events hash u64 | rand draws u64 | digest u64 |
//	    down u8 | counters (nOps+3 × u64, the v2 'C' layout)

const (
	checkpointMagic   = "TCKP"
	checkpointVersion = 1

	ckFrameMeta     = 'M'
	ckFrameCommands = 'L'
	ckFrameHosts    = 'H'
	ckFrameEnd      = 'E'

	// ckHostChunk is the writer's hosts-per-'H'-frame chunk size.
	ckHostChunk = 256

	// maxCheckpointBlob bounds the label, config and command-log blobs a
	// reader will materialize from a declared length.
	maxCheckpointBlob = 1 << 24
	// maxCheckpointName bounds one host name.
	maxCheckpointName = 1 << 12
)

// CheckpointHost is one host's keyframe state: the engine summary
// (clock, scheduling sequence, pending-event hash, RNG position — see
// sim.EngineState), the host's cumulative trace digest and counters, and
// its up/down status. Everything a resumed run must reproduce exactly.
type CheckpointHost struct {
	Name       string
	Clock      int64
	Seq        uint64
	Pending    uint32
	EventsHash uint64
	RandDraws  uint64
	Digest     uint64
	Down       bool
	Counters   Counters
}

// Checkpoint is a decoded keyframe file.
type Checkpoint struct {
	// Label is free-form writer identification (scenario name).
	Label string
	// Seed is the run's root seed.
	Seed int64
	// Window is the number of completed fleet windows at the keyframe.
	Window uint64
	// VTime is the global virtual time floor at the keyframe boundary.
	VTime int64
	// Config is the opaque topology/run configuration blob.
	Config []byte
	// Commands is the opaque encoded command log (internal/control).
	Commands []byte
	// Hosts holds per-host states in host-index order.
	Hosts []CheckpointHost
}

// ckWriter tracks the running checksum over everything written.
type ckWriter struct {
	w   *bufio.Writer
	sum uint64
	err error
}

func (c *ckWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	c.sum = fnv1a.Bytes(c.sum, p)
	_, c.err = c.w.Write(p)
}

func (c *ckWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.write(b[:])
}

func (c *ckWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.write(b[:])
}

func (c *ckWriter) blob(p []byte) {
	c.u32(uint32(len(p)))
	c.write(p)
}

// WriteCheckpoint encodes cp to w in the chunked checkpoint format.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	if len(cp.Label) > maxCheckpointBlob || len(cp.Config) > maxCheckpointBlob || len(cp.Commands) > maxCheckpointBlob {
		return fmt.Errorf("trace: checkpoint blob exceeds %d bytes", maxCheckpointBlob)
	}
	c := &ckWriter{w: bufio.NewWriterSize(w, 1<<16), sum: fnv1a.Offset64}
	c.write([]byte(checkpointMagic))
	c.u32(checkpointVersion)

	c.write([]byte{ckFrameMeta})
	c.u64(uint64(cp.Seed))
	c.u64(cp.Window)
	c.u64(uint64(cp.VTime))
	c.u32(uint32(len(cp.Hosts)))
	c.blob([]byte(cp.Label))
	c.blob(cp.Config)

	if len(cp.Commands) > 0 {
		c.write([]byte{ckFrameCommands})
		c.blob(cp.Commands)
	}

	for base := 0; base < len(cp.Hosts); base += ckHostChunk {
		hi := base + ckHostChunk
		if hi > len(cp.Hosts) {
			hi = len(cp.Hosts)
		}
		c.write([]byte{ckFrameHosts})
		c.u32(uint32(hi - base))
		for _, h := range cp.Hosts[base:hi] {
			if len(h.Name) > maxCheckpointName {
				return fmt.Errorf("trace: checkpoint host name exceeds %d bytes", maxCheckpointName)
			}
			c.blob([]byte(h.Name))
			c.u64(uint64(h.Clock))
			c.u64(h.Seq)
			c.u32(h.Pending)
			c.u64(h.EventsHash)
			c.u64(h.RandDraws)
			c.u64(h.Digest)
			down := byte(0)
			if h.Down {
				down = 1
			}
			c.write([]byte{down})
			for _, n := range h.Counters.ByOp {
				c.u64(n)
			}
			c.u64(h.Counters.Total)
			c.u64(h.Counters.Dropped)
			c.u64(h.Counters.Unknown)
		}
	}

	sum := c.sum // checksum covers everything before the 'E' frame
	c.write([]byte{ckFrameEnd})
	c.u64(sum)
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
}

// ckReader mirrors ckWriter: every consumed byte feeds the running
// checksum and the offset, so truncation errors are byte-exact.
type ckReader struct {
	br  *bufio.Reader
	sum uint64
	off int64
}

func (c *ckReader) read(p []byte, what string) error {
	n, err := io.ReadFull(c.br, p)
	c.sum = fnv1a.Bytes(c.sum, p[:n])
	c.off += int64(n)
	if err == nil {
		return nil
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("trace: checkpoint %s truncated at byte offset %d: %w", what, c.off, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: reading checkpoint %s at byte offset %d: %w", what, c.off, err)
}

func (c *ckReader) u32(what string) (uint32, error) {
	var b [4]byte
	if err := c.read(b[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (c *ckReader) u64(what string) (uint64, error) {
	var b [8]byte
	if err := c.read(b[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (c *ckReader) blob(what string, max int) ([]byte, error) {
	n, err := c.u32(what + " length")
	if err != nil {
		return nil, err
	}
	if int(n) > max {
		return nil, fmt.Errorf("trace: checkpoint %s implausibly long (%d bytes)", what, n)
	}
	p := make([]byte, n)
	if err := c.read(p, what); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadCheckpoint decodes a checkpoint file. Framing is validated
// strictly: a missing or duplicated meta frame, host counts that disagree
// with the meta declaration, truncation anywhere, a checksum mismatch, or
// bytes after the terminator are all errors, never panics.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	c := &ckReader{br: bufio.NewReaderSize(r, 1<<16), sum: fnv1a.Offset64}
	var hdr [8]byte
	if err := c.read(hdr[:], "header"); err != nil {
		return nil, err
	}
	if string(hdr[0:4]) != checkpointMagic {
		return nil, fmt.Errorf("trace: bad checkpoint magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != checkpointVersion {
		return nil, fmt.Errorf("trace: unsupported checkpoint version %d", v)
	}

	cp := &Checkpoint{}
	sawMeta, sawCommands := false, false
	declaredHosts := uint32(0)
	for {
		sumBefore := c.sum // checksum excludes the 'E' frame itself
		kind, err := c.br.ReadByte()
		if err == io.EOF {
			return nil, fmt.Errorf("trace: checkpoint truncated at byte offset %d: missing end frame", c.off)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading checkpoint frame at byte offset %d: %w", c.off, err)
		}
		c.sum = fnv1a.Uint(c.sum, uint64(kind), 1)
		c.off++
		switch kind {
		case ckFrameMeta:
			if sawMeta {
				return nil, fmt.Errorf("trace: duplicate checkpoint meta frame at byte offset %d", c.off)
			}
			sawMeta = true
			seed, err := c.u64("meta seed")
			if err != nil {
				return nil, err
			}
			cp.Seed = int64(seed)
			if cp.Window, err = c.u64("meta window"); err != nil {
				return nil, err
			}
			vt, err := c.u64("meta vtime")
			if err != nil {
				return nil, err
			}
			cp.VTime = int64(vt)
			if declaredHosts, err = c.u32("meta host count"); err != nil {
				return nil, err
			}
			if declaredHosts > maxReasonable {
				return nil, fmt.Errorf("trace: implausible checkpoint host count (%d)", declaredHosts)
			}
			label, err := c.blob("label", maxCheckpointBlob)
			if err != nil {
				return nil, err
			}
			cp.Label = string(label)
			if cp.Config, err = c.blob("config", maxCheckpointBlob); err != nil {
				return nil, err
			}
		case ckFrameCommands:
			if !sawMeta {
				return nil, fmt.Errorf("trace: checkpoint command frame before meta at byte offset %d", c.off)
			}
			if sawCommands {
				return nil, fmt.Errorf("trace: duplicate checkpoint command frame at byte offset %d", c.off)
			}
			sawCommands = true
			var err error
			if cp.Commands, err = c.blob("command log", maxCheckpointBlob); err != nil {
				return nil, err
			}
		case ckFrameHosts:
			if !sawMeta {
				return nil, fmt.Errorf("trace: checkpoint host frame before meta at byte offset %d", c.off)
			}
			count, err := c.u32("host chunk header")
			if err != nil {
				return nil, err
			}
			if uint64(len(cp.Hosts))+uint64(count) > uint64(declaredHosts) {
				return nil, fmt.Errorf("trace: checkpoint host chunk overruns declared count (%d+%d > %d)",
					len(cp.Hosts), count, declaredHosts)
			}
			for i := uint32(0); i < count; i++ {
				var h CheckpointHost
				name, err := c.blob("host name", maxCheckpointName)
				if err != nil {
					return nil, err
				}
				h.Name = string(name)
				clock, err := c.u64("host clock")
				if err != nil {
					return nil, err
				}
				h.Clock = int64(clock)
				if h.Seq, err = c.u64("host seq"); err != nil {
					return nil, err
				}
				if h.Pending, err = c.u32("host pending"); err != nil {
					return nil, err
				}
				if h.EventsHash, err = c.u64("host events hash"); err != nil {
					return nil, err
				}
				if h.RandDraws, err = c.u64("host rand draws"); err != nil {
					return nil, err
				}
				if h.Digest, err = c.u64("host digest"); err != nil {
					return nil, err
				}
				var down [1]byte
				if err := c.read(down[:], "host down flag"); err != nil {
					return nil, err
				}
				if down[0] > 1 {
					return nil, fmt.Errorf("trace: checkpoint host %q has bad down flag %d", h.Name, down[0])
				}
				h.Down = down[0] == 1
				for op := range h.Counters.ByOp {
					if h.Counters.ByOp[op], err = c.u64("host counters"); err != nil {
						return nil, err
					}
				}
				if h.Counters.Total, err = c.u64("host counters"); err != nil {
					return nil, err
				}
				if h.Counters.Dropped, err = c.u64("host counters"); err != nil {
					return nil, err
				}
				if h.Counters.Unknown, err = c.u64("host counters"); err != nil {
					return nil, err
				}
				cp.Hosts = append(cp.Hosts, h)
			}
		case ckFrameEnd:
			want, err := c.u64("end checksum")
			if err != nil {
				return nil, err
			}
			if !sawMeta {
				return nil, fmt.Errorf("trace: checkpoint end frame before meta at byte offset %d", c.off)
			}
			if want != sumBefore {
				return nil, fmt.Errorf("trace: checkpoint checksum mismatch (file %016x, computed %016x)", want, sumBefore)
			}
			if uint32(len(cp.Hosts)) != declaredHosts {
				return nil, fmt.Errorf("trace: checkpoint has %d hosts, meta declared %d", len(cp.Hosts), declaredHosts)
			}
			if _, err := c.br.ReadByte(); err == nil {
				return nil, fmt.Errorf("trace: trailing garbage after checkpoint end frame at byte offset %d", c.off)
			} else if err != io.EOF {
				return nil, fmt.Errorf("trace: reading checkpoint end at byte offset %d: %w", c.off, err)
			}
			return cp, nil
		default:
			return nil, fmt.Errorf("trace: unknown checkpoint frame type %q at byte offset %d", kind, c.off-1)
		}
	}
}
