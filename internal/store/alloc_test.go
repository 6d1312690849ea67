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
// brute-force model: a bitmap of extentAlign blocks whose best fit is the
// shortest free run long enough, the lowest-addressed among equals.  A
// seeded run of allocations, each recorded as a dedicated home, and frees —
// a home dropped, or cut to its head or tail, and the free list derived
// again — must choose what the model chooses, keep the list ascending with no
// two extents overlapping or touching, and report the model's free total.
func TestFreeListMatchesModel(t *testing.T) {
	const blocks = 96
	opts := Options{LogSize: 4096, MetaAreaSize: 2 * extentAlign} // the data region starts at 5 blocks
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := int64(5 * extentAlign)
		s := newStore(disk.New(disk.Params{Sectors: (base + blocks*extentAlign) / disk.SectorSize}, &vclock.Clock{}), opts)
		derive := func() {
			var err error
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
			for b := (e.off - base) / extentAlign; b < (e.off-base+e.size)/extentAlign; b++ {
				model[b] = free
			}
		}
		type hold struct {
			id  uint64 // the home that holds it
			ext extent
		}
		var held []hold
		for step := 0; step < 500; step++ {
			if len(held) == 0 || r.Intn(2) == 0 {
				size := 1 + r.Int63n(12*extentAlign)
				got, err := s.allocate(size)
				want, ok := modelBestFit(model, base, alignUp(size))
				switch {
				case !ok && !errors.Is(err, ErrNoSpace):
					t.Fatalf("seed %d step %d: allocate(%d) = %+v, %v; the model has no room", seed, step, size, got, err)
				case ok && (err != nil || got != want):
					t.Fatalf("seed %d step %d: allocate(%d) = %+v, %v; the model picks %+v", seed, step, size, got, err, want)
				case ok:
					mark(got, false)
					held = append(held, hold{uint64(step), got})
					putHome(s, uint64(step), home{off: got.off, size: size})
				}
			} else {
				i := r.Intn(len(held))
				id, e := held[i].id, held[i].ext
				if n := e.size / extentAlign; n > 1 && r.Intn(2) == 0 {
					// Free the head or the tail and keep the rest held.
					cut := (1 + r.Int63n(n-1)) * extentAlign
					head, tail := extent{e.off, cut}, extent{e.off + cut, e.size - cut}
					if r.Intn(2) == 0 {
						head, tail = tail, head
					}
					e, held[i].ext = head, tail
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
		runs = append(runs, extent{base + int64(start)*extentAlign, int64(b-start) * extentAlign})
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
