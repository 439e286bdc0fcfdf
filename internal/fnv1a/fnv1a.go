// Package fnv1a is the one FNV-1a 64 implementation behind every digest and
// checksum in the module: the fleet's per-host trace digests and their
// fleet-wide fold, the engine's pending-event hash and the checkpoint
// file's checksum. Each function folds its input into a running digest h
// and returns the new digest; start from Offset64. The values are those of
// hash/fnv's New64a over the same bytes.
//
// FNV-1a steps each byte c as h = (h ^ c) * Prime64. A zero byte leaves the
// xor a no-op, so a run of k zero bytes is one multiply by Prime64^k (mod
// 2^64). Uint uses this to fold a fixed-width little-endian integer's zero
// high bytes in a single multiply: a small value in a wide field costs one
// step per significant byte plus one, not one per byte of width.
package fnv1a

const (
	// Offset64 is the FNV-1a 64 initial digest.
	Offset64 = 14695981039346656037
	// Prime64 is the FNV 64-bit prime.
	Prime64 = 1099511628211
)

// zeroRun[k] is Prime64^k: folding k zero bytes.
var zeroRun = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * Prime64
	}
	return p
}()

// Bytes folds b into h.
//
//lint:allocfree byte loop over caller-owned bytes
func Bytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * Prime64
	}
	return h
}

// String folds the bytes of s into h.
//
//lint:allocfree byte loop over the string's bytes
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * Prime64
	}
	return h
}

// Uint folds v as a width-byte little-endian integer (width 1 to 8) into h:
// one step per byte up to v's highest nonzero byte, then one multiply for
// the zero bytes above it. v must fit in width bytes.
//
//lint:allocfree shift loop and one table lookup
func Uint(h, v uint64, width int) uint64 {
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * Prime64
		width--
	}
	return h * zeroRun[width]
}
