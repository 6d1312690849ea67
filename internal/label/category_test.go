package label

import (
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

func TestAllocatorNames(t *testing.T) {
	a := NewAllocator(5)
	c := a.Alloc()
	a.SetName(c, "br")
	if name, ok := a.CategoryName(c); !ok || name != "br" {
		t.Errorf("CategoryName = %q, %v", name, ok)
	}
	a.SetName(c, "bobr")
	if name, _ := a.CategoryName(c); name != "bobr" {
		t.Errorf("SetName not applied: %q", name)
	}
	if _, ok := a.CategoryName(Category(123456)); ok {
		t.Error("unnamed category should not resolve")
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
