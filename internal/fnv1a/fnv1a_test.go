package fnv1a

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// stdlib returns hash/fnv's FNV-1a 64 over the concatenated parts.
func stdlib(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

// le returns v's low width bytes, little-endian.
func le(v uint64, width int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:width]
}

// widthValues returns values that fit in width bytes: zero, every single
// set byte, interior and trailing zero runs, all ones and random values.
func widthValues(rng *rand.Rand, width int) []uint64 {
	mask := ^uint64(0) >> (64 - 8*width)
	vs := []uint64{0, 1, 0xff, mask, mask &^ 0xff, 0x0100 & mask, 0x0101 & mask, mask &^ (0xff << (8 * (width / 2)))}
	for i := 0; i < width; i++ {
		vs = append(vs, uint64(0x80)<<(8*i), uint64(1)<<(8*i)|1)
	}
	for i := 0; i < 200; i++ {
		// Random values of every significant length, not just full ones.
		vs = append(vs, rng.Uint64()&mask>>(8*rng.Intn(width)))
	}
	return vs
}

// TestUintMatchesFNV checks Uint at every width against hash/fnv over the
// value's little-endian bytes, after a prefix so the running digest is not
// the offset basis.
func TestUintMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []byte("fold prefix")
	h0 := Bytes(Offset64, prefix)
	for width := 1; width <= 8; width++ {
		for _, v := range widthValues(rng, width) {
			if got, want := Uint(h0, v, width), stdlib(prefix, le(v, width)); got != want {
				t.Fatalf("Uint(%#x, width %d) = %x, want %x", v, width, got, want)
			}
		}
	}
}

// TestBytesAndStringMatchFNV checks the byte and string folds, with zero
// bytes inside and at both ends, and that folding in pieces equals
// folding the whole.
func TestBytesAndStringMatchFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 70; n++ {
		b := make([]byte, n)
		for i := range b {
			if rng.Intn(3) > 0 {
				b[i] = byte(rng.Intn(256))
			}
		}
		want := stdlib(b)
		if got := Bytes(Offset64, b); got != want {
			t.Fatalf("Bytes(%x) = %x, want %x", b, got, want)
		}
		if got := String(Offset64, string(b)); got != want {
			t.Fatalf("String(%q) = %x, want %x", b, got, want)
		}
		cut := rng.Intn(n + 1)
		if got := String(Bytes(Offset64, b[:cut]), string(b[cut:])); got != want {
			t.Fatalf("Bytes then String split at %d of %x = %x, want %x", cut, b, got, want)
		}
	}
	if Bytes(Offset64, nil) != Offset64 || String(Offset64, "") != Offset64 {
		t.Fatal("folding nothing changed the digest")
	}
}

// TestUintRejectsWideValue: a value wider than its field would fold bytes
// the field does not have; it panics instead of digesting wrongly.
func TestUintRejectsWideValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint(0x1ff, width 1) did not panic")
		}
	}()
	Uint(Offset64, 0x1ff, 1)
}
