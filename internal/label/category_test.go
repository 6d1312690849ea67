package label

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

func TestAllocatorUniqueness(t *testing.T) {
	a := NewAllocator(42)
	seen := make(map[Category]bool)
	const n = 20000
	for i := 0; i < n; i++ {
		c := a.Alloc()
		if !c.Valid() {
			t.Fatalf("allocated category %d exceeds 61 bits", c)
		}
		if seen[c] {
			t.Fatalf("duplicate category %d after %d allocations", c, i)
		}
		seen[c] = true
	}
}

func TestAllocatorDeterministicPerSeed(t *testing.T) {
	a := NewAllocator(7)
	b := NewAllocator(7)
	c := NewAllocator(8)
	var differs bool
	for i := 0; i < 100; i++ {
		ca, cb, cc := a.Alloc(), b.Alloc(), c.Alloc()
		if ca != cb {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, ca, cb)
		}
		if ca != cc {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds should produce different category sequences")
	}
}

func TestAllocatorHidesCounter(t *testing.T) {
	// Sequential counters should not produce sequential identifiers.
	a := NewAllocator(1)
	c1, c2, c3 := a.Alloc(), a.Alloc(), a.Alloc()
	if c2 == c1+1 && c3 == c2+1 {
		t.Error("category identifiers look like a bare counter; encryption missing")
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator(3)
	const workers, per = 8, 500
	var mu sync.Mutex
	seen := make(map[Category]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]Category, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, a.Alloc())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, c := range local {
				if seen[c] {
					t.Errorf("duplicate category %d", c)
				}
				seen[c] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Errorf("expected %d unique categories, got %d", workers*per, len(seen))
	}
}

func TestCategoryValid(t *testing.T) {
	if !MaxCategory.Valid() {
		t.Error("MaxCategory must be valid")
	}
	if (MaxCategory + 1).Valid() {
		t.Error("MaxCategory+1 must be invalid")
	}
}

// sipHash24 is SipHash-2-4 over any message, written from the SipHash
// paper's specification (Aumasson and Bernstein, 2012) and sharing no code
// with the allocator: 8-byte little-endian blocks, then a final block
// carrying the leftover bytes and the message length mod 256 in its top byte.
func sipHash24(k0, k1 uint64, msg []byte) uint64 {
	v0, v1 := k0^0x736f6d6570736575, k1^0x646f72616e646f6d
	v2, v3 := k0^0x6c7967656e657261, k1^0x7465646279746573
	rounds := func(n int) {
		for ; n > 0; n-- {
			v0 += v1
			v1 = bits.RotateLeft64(v1, 13)
			v1 ^= v0
			v0 = bits.RotateLeft64(v0, 32)
			v2 += v3
			v3 = bits.RotateLeft64(v3, 16)
			v3 ^= v2
			v0 += v3
			v3 = bits.RotateLeft64(v3, 21)
			v3 ^= v0
			v2 += v1
			v1 = bits.RotateLeft64(v1, 17)
			v1 ^= v2
			v2 = bits.RotateLeft64(v2, 32)
		}
	}
	compress := func(m uint64) {
		v3 ^= m
		rounds(2)
		v0 ^= m
	}
	n := len(msg)
	for ; len(msg) >= 8; msg = msg[8:] {
		compress(binary.LittleEndian.Uint64(msg))
	}
	last := uint64(n) << 56
	for i, b := range msg {
		last |= uint64(b) << (8 * i)
	}
	compress(last)
	v2 ^= 0xff
	rounds(4)
	return v0 ^ v1 ^ v2 ^ v3
}

// TestAllocatorSipHashKnownAnswers checks the generic SipHash against the
// reference vectors (key 00..0f; messages of 15 bytes 00..0e and of none),
// then the allocator's inline round function against the generic one on
// 4-byte messages under every round key.
func TestAllocatorSipHashKnownAnswers(t *testing.T) {
	var key [16]byte
	msg := make([]byte, 15)
	for i := range key {
		key[i] = byte(i)
	}
	for i := range msg {
		msg[i] = byte(i)
	}
	k0, k1 := binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])
	for _, c := range []struct {
		msg  []byte
		want uint64
	}{{msg, 0xa129ca6149be45e5}, {nil, 0x726fdb47dd0e0e31}} {
		if got := sipHash24(k0, k1, c.msg); got != c.want {
			t.Errorf("SipHash-2-4 of %d bytes = %#x, want %#x", len(c.msg), got, c.want)
		}
	}
	a := NewAllocator(11)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		half := r.Uint32()
		if i < 2 {
			half = uint32(i) * math.MaxUint32
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], half)
		for round, k := range a.keys {
			if got, want := a.roundFn(round, half), uint32(sipHash24(k[0], k[1], b[:])); got != want {
				t.Fatalf("roundFn(%d, %#x) = %#x, generic SipHash gives %#x", round, half, got, want)
			}
		}
	}
}

// decrypt undoes encrypt by running its rounds backwards: each round XORs a
// function of the half it leaves alone, so the same XOR inverts it.
func (a *Allocator) decrypt(c Category) uint64 {
	l, r := uint32(uint64(c)>>31), uint32(c)&(1<<31-1)
	for round := 3; round >= 0; round-- {
		if round%2 == 0 {
			l ^= a.roundFn(round, r) & (1<<30 - 1)
		} else {
			r ^= a.roundFn(round, l) & (1<<31 - 1)
		}
	}
	return uint64(l)<<31 | uint64(r)
}

// TestAllocatorEncryptIsBijection samples 61-bit values, the extremes among
// them, and checks that decrypting each one's encryption gives it back, so
// distinct counters can never meet in one category.
func TestAllocatorEncryptIsBijection(t *testing.T) {
	a := NewAllocator(13)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		v := r.Uint64() & uint64(MaxCategory)
		switch i {
		case 0, 1:
			v = uint64(i) * uint64(MaxCategory)
		}
		c := a.encrypt(v)
		if !c.Valid() {
			t.Fatalf("encrypt(%#x) = %#x, past 61 bits", v, c)
		}
		if back := a.decrypt(c); back != v {
			t.Fatalf("decrypt(encrypt(%#x)) = %#x", v, back)
		}
	}
}

// TestAllocatorAllocatesNothing pins Alloc at zero heap allocations.
func TestAllocatorAllocatesNothing(t *testing.T) {
	a := NewAllocator(1)
	if n := testing.AllocsPerRun(1000, func() { a.Alloc() }); n != 0 {
		t.Errorf("Alloc allocates %.1f times per call, want 0", n)
	}
}

var allocSink Category

// BenchmarkAlloc times one identifier, which must report 0 allocs/op.
func BenchmarkAlloc(b *testing.B) {
	a := NewAllocator(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocSink = a.Alloc()
	}
}
