package label

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
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
// An Allocator is safe for concurrent use.
type Allocator struct {
	mu      sync.Mutex
	counter uint64
	keys    [4][32]byte
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
		copy(a.keys[i][:], h.Sum(nil))
	}
	return a
}

// Alloc returns a previously unused category identifier.
func (a *Allocator) Alloc() Category {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counter++
	return a.encrypt(a.counter)
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

func (a *Allocator) roundFn(round int, half uint32) uint32 {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], half)
	h := sha256.New()
	h.Write(a.keys[round][:])
	h.Write(buf[:])
	sum := h.Sum(nil)
	return binary.LittleEndian.Uint32(sum[:4])
}
