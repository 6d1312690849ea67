package store

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// TestFreeListMatchesModel pins the allocator's decision rule against a
// brute-force model: a bitmap of 512-byte blocks whose best fit is the
// shortest free run long enough, the lowest-addressed among equals.  A
// seeded run of allocations, each recorded as a segment of its own holding
// one home, and frees — a home dropped with its segment, or the segment and
// its home cut to their head or tail, and the free list derived again — must
// choose what the model chooses, keep the list ascending with no two extents
// overlapping or touching, and report the model's free total.
func TestFreeListMatchesModel(t *testing.T) {
	const block, blocks = 512, 1536
	opts := Options{LogSize: 4096, MetaAreaSize: 16 << 10} // the data region starts at 80 blocks
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := int64(80 * block)
		s := newStore(disk.New(disk.Params{Sectors: (base + blocks*block) / disk.SectorSize}, &vclock.Clock{}), opts)
		derive := func() {
			var err error
			s.held = nil // a commit after the one that dropped them frees them
			if s.free, err = s.deriveFree(0, true); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		derive()
		model := make([]bool, blocks) // block i is free
		for i := range model {
			model[i] = true
		}
		mark := func(e extent, free bool) {
			for b := (e.off - base) / block; b < (e.off-base+e.size)/block; b++ {
				model[b] = free
			}
		}
		type hold struct {
			id  uint64 // the home that holds it
			seg *segment
		}
		var held []hold
		for step := 0; step < 500; step++ {
			if len(held) == 0 || r.Intn(2) == 0 {
				size := 1 + r.Int63n(192*block)
				got, err := s.allocate(size)
				want, ok := modelBestFit(model, base, align512(size))
				switch {
				case !ok && !errors.Is(err, ErrNoSpace):
					t.Fatalf("seed %d step %d: allocate(%d) = %+v, %v; the model has no room", seed, step, size, got, err)
				case ok && (err != nil || got != want):
					t.Fatalf("seed %d step %d: allocate(%d) = %+v, %v; the model picks %+v", seed, step, size, got, err, want)
				case ok:
					mark(got, false)
					seg := &segment{base: got.off, size: got.size, used: got.size, live: got.size}
					s.segs = slices.Insert(s.segs, s.segsUpTo(seg.base), seg)
					held = append(held, hold{uint64(step), seg})
					putHome(s, uint64(step), home{off: got.off, size: size})
				}
			} else {
				i := r.Intn(len(held))
				id, seg := held[i].id, held[i].seg
				e := extent{seg.base, seg.size}
				if n := e.size / block; n > 1 && r.Intn(2) == 0 {
					// Free the head or the tail and keep the rest held.
					cut := (1 + r.Int63n(n-1)) * block
					head, tail := extent{e.off, cut}, extent{e.off + cut, e.size - cut}
					if r.Intn(2) == 0 {
						head, tail = tail, head
					}
					e = head
					seg.base, seg.size, seg.used, seg.live = tail.off, tail.size, tail.size, tail.size
					putHome(s, id, home{off: tail.off, size: tail.size})
				} else {
					held = slices.Delete(held, i, i+1)
					s.mergeHomes([]sealedEntry{{id: id, dead: true}})
				}
				derive()
				mark(e, true)
			}
			list := s.free
			for j := 1; j < len(list); j++ {
				if list[j-1].off+list[j-1].size >= list[j].off {
					t.Fatalf("seed %d step %d: free list %+v is not ascending with gaps", seed, step, list)
				}
			}
			runs := modelRuns(model, base)
			if !slices.Equal(list, runs) {
				t.Fatalf("seed %d step %d: free list %+v, the model's free runs %+v", seed, step, list, runs)
			}
			var total int64
			for _, e := range runs {
				total += e.size
			}
			if got := s.FreeBytes(); got != total {
				t.Fatalf("seed %d step %d: FreeBytes = %d, the model has %d", seed, step, got, total)
			}
		}
		if len(s.segs) != len(held) {
			t.Fatalf("seed %d: %d segments for %d held extents", seed, len(s.segs), len(held))
		}
	}
}

// modelRuns returns the maximal runs of free blocks as extents.
func modelRuns(model []bool, base int64) []extent {
	var runs []extent
	for b := 0; b < len(model); {
		if !model[b] {
			b++
			continue
		}
		start := b
		for b < len(model) && model[b] {
			b++
		}
		runs = append(runs, extent{base + int64(start)*512, int64(b-start) * 512})
	}
	return runs
}

// modelBestFit returns the first need bytes of the shortest free run that
// holds them, the lowest-addressed among equals.
func modelBestFit(model []bool, base, need int64) (extent, bool) {
	var best extent
	for _, run := range modelRuns(model, base) {
		if run.size >= need && (best.size == 0 || run.size < best.size) {
			best = run
		}
	}
	return extent{best.off, need}, best.size != 0
}

// putHome sets id's home in the home table, keeping the ID order, without
// the segment accounting a checkpoint's merge does.
func putHome(s *Store, id uint64, h home) {
	i, ok := s.homeAt(id)
	if !ok {
		s.homes = slices.Insert(s.homes, i, homedObject{id: id})
	}
	s.homes[i].home = h
}

// homeIn returns id's home, or the zero home.
func homeIn(s *Store, id uint64) home {
	h, _ := s.homeOf(id)
	return h
}

// TestAllocateTopTakesTheHighestFit: allocateTop takes its sectors from the
// end of the last free extent large enough, an exact fit removing it, and
// refuses a size no extent holds.
func TestAllocateTopTakesTheHighestFit(t *testing.T) {
	s := newStore(nil, Options{})
	s.free = []extent{{1024, 2048}, {8192, 1024}, {16384, 512}}
	for _, want := range []extent{{16384, 512}, {8704, 512}, {8192, 512}, {2560, 512}} {
		if got, err := s.allocateTop(100); err != nil || got != want {
			t.Fatalf("allocateTop = %+v, %v; want %+v (free list now %+v)", got, err, want, s.free)
		}
	}
	if _, err := s.allocateTop(4096); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("allocateTop past every extent = %v; want ErrNoSpace", err)
	}
	if want := []extent{{1024, 1536}}; !slices.Equal(s.free, want) {
		t.Fatalf("free list %+v; want %+v", s.free, want)
	}
}
