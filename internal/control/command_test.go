package control

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"timerstudy/internal/sim"
)

func sampleLog() []Command {
	return []Command{
		{Seq: 1, Window: 0, Kind: KindSpike, Host: -1, Arg: 8, Dur: sim.Duration(sim.Second)},
		{Seq: 2, Window: 20, Kind: KindKill, Host: 0},
		{Seq: 3, Window: 25, Kind: KindPolicy, Host: -1, Arg: int64(1)},
		{Seq: 4, Window: 30, Kind: KindCoalesce, Host: 3, Arg: int64(100 * sim.Millisecond)},
		{Seq: 5, Window: 60, Kind: KindRestart, Host: 0},
	}
}

func TestCommandCodecRoundtrip(t *testing.T) {
	for _, log := range [][]Command{nil, sampleLog(), sampleLog()[:1]} {
		enc := EncodeCommands(log)
		got, err := DecodeCommands(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(log) {
			t.Fatalf("roundtrip count: %d != %d", len(got), len(log))
		}
		for i := range log {
			if got[i] != log[i] {
				t.Fatalf("record %d: %+v != %+v", i, got[i], log[i])
			}
		}
	}
}

// TestDecodeCommandsTruncation: cutting the log at every byte offset is an
// error, never a panic, and the error names an offset.
func TestDecodeCommandsTruncation(t *testing.T) {
	enc := EncodeCommands(sampleLog())
	for cut := 0; cut < len(enc); cut++ {
		_, err := DecodeCommands(enc[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !strings.Contains(err.Error(), "byte offset") && cut >= 12 {
			t.Fatalf("truncation at %d: error names no offset: %v", cut, err)
		}
	}
}

func TestDecodeCommandsErrors(t *testing.T) {
	enc := EncodeCommands(sampleLog())

	bad := append([]byte("XCMD"), enc[4:]...)
	if _, err := DecodeCommands(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}

	ver := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(ver[4:], 99)
	if _, err := DecodeCommands(ver); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}

	huge := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(huge[8:], maxCommandLog+1)
	if _, err := DecodeCommands(huge); err == nil || !strings.Contains(err.Error(), "implausibl") {
		t.Fatalf("implausible count: %v", err)
	}

	tail := append(append([]byte(nil), enc...), 0xAA)
	if _, err := DecodeCommands(tail); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// FuzzDecodeCommands: arbitrary bytes never panic the decoder, and anything
// it accepts re-encodes to the identical canonical bytes.
func FuzzDecodeCommands(f *testing.F) {
	f.Add(EncodeCommands(sampleLog()))
	f.Add(EncodeCommands(nil))
	f.Add([]byte("TCMD"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cmds, err := DecodeCommands(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeCommands(cmds), data) {
			t.Fatalf("accepted non-canonical encoding (%d bytes)", len(data))
		}
	})
}

func TestKindStringParse(t *testing.T) {
	for k := KindSpike; k < kindEnd; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("reboot-the-universe"); err == nil {
		t.Fatal("unknown kind parsed")
	}
	if s := Kind(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("unknown kind string: %q", s)
	}
}
