package label

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Category is a 61-bit opaque category identifier.  The kernel generates
// category names by encrypting a counter with a block cipher so that one
// thread cannot learn how many categories another thread has allocated
// (Section 2).  The top three bits of the uint64 are always zero, which in
// the original system left room to pack a 3-bit taint level alongside the
// category name in a 64-bit label entry.
type Category uint64

// CategoryBits is the width of a category identifier.
const CategoryBits = 61

// MaxCategory is the largest representable category identifier.
const MaxCategory Category = (1 << CategoryBits) - 1

// String renders the category as the paper would, an opaque number.
func (c Category) String() string { return fmt.Sprintf("c%d", uint64(c)) }

// Valid reports whether the value fits in 61 bits.
func (c Category) Valid() bool { return c <= MaxCategory }

// Allocator hands out fresh category identifiers.  It encrypts a
// monotonically increasing counter with a keyed Feistel permutation over the
// 61-bit identifier space, so identifiers are unique (the permutation is a
// bijection) yet reveal nothing about allocation order or volume.
//
// An Allocator is safe for concurrent use: the counter is one atomic word
// and the permutation reads only keys fixed at construction.
type Allocator struct {
	counter atomic.Uint64
	keys    [4][2]uint64 // one 128-bit SipHash key per Feistel round
}

// NewAllocator returns an allocator whose permutation is keyed by seed.
// Two allocators created with the same seed produce the same identifier
// sequence, which keeps simulations deterministic.
func NewAllocator(seed uint64) *Allocator {
	a := &Allocator{}
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seed)
	for i := range a.keys {
		h := sha256.New()
		h.Write([]byte("histar-category-key"))
		h.Write(s[:])
		h.Write([]byte{byte(i)})
		sum := h.Sum(nil)
		a.keys[i] = [2]uint64{binary.LittleEndian.Uint64(sum[:8]), binary.LittleEndian.Uint64(sum[8:16])}
	}
	return a
}

// Alloc returns a previously unused category identifier.
func (a *Allocator) Alloc() Category {
	return a.encrypt(a.counter.Add(1))
}

// encrypt applies a 4-round unbalanced Feistel permutation over the 61-bit
// space: the value is split into a 30-bit left half and a 31-bit right half,
// and rounds alternately XOR a keyed function of one half into the other.
// Each round is invertible, so the whole construction is a bijection on
// [0, 2^61) and distinct counters always yield distinct categories.
func (a *Allocator) encrypt(v uint64) Category {
	const (
		leftBits  = 30
		rightBits = 31
		leftMask  = (1 << leftBits) - 1
		rightMask = (1 << rightBits) - 1
	)
	l := uint32((v >> rightBits) & leftMask)
	r := uint32(v & rightMask)
	for round := 0; round < 4; round++ {
		if round%2 == 0 {
			l ^= a.roundFn(round, r) & leftMask
		} else {
			r ^= a.roundFn(round, l) & rightMask
		}
	}
	out := (uint64(l) << rightBits) | uint64(r)
	return Category(out & uint64(MaxCategory))
}

// roundFn is SipHash-2-4 of the half's four little-endian bytes under the
// round's key, cut to 32 bits: a message that short is one final block, its
// length in the top byte.
func (a *Allocator) roundFn(round int, half uint32) uint32 {
	k, m := a.keys[round], 4<<56|uint64(half)
	v0, v1, v2, v3 := k[0]^0x736f6d6570736575, k[1]^0x646f72616e646f6d, k[0]^0x6c7967656e657261, k[1]^0x7465646279746573^m
	v0, v1, v2, v3 = sipRound(sipRound(v0, v1, v2, v3))
	v0, v2 = v0^m, v2^0xff
	v0, v1, v2, v3 = sipRound(sipRound(sipRound(sipRound(v0, v1, v2, v3))))
	return uint32(v0 ^ v1 ^ v2 ^ v3)
}

// sipRound is one SipRound, its two independent halves side by side.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0, v2 = v0+v1, v2+v3
	v1, v3 = bits.RotateLeft64(v1, 13)^v0, bits.RotateLeft64(v3, 16)^v2
	v0, v2 = bits.RotateLeft64(v0, 32)+v3, v2+v1
	v1, v3 = bits.RotateLeft64(v1, 17)^v2, bits.RotateLeft64(v3, 21)^v0
	return v0, v1, bits.RotateLeft64(v2, 32), v3
}
