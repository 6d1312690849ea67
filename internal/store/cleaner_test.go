package store

// Directed tests for the cleaner's policy: when it runs (the low mark and
// the free-segment reserve), which segments it takes and how many (the
// emptiest first, up to the high mark), that a store of half-live segments
// compacts rather than wedges, and what cleaning costs at steady state.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// cleanerObj is a 4 KiB object body that names id and its generation:
// sixteen fill a 64 KiB segment exactly.
func cleanerObj(id uint64, gen int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%07d%09d", id, gen)), 256)
}

// cleanerStore formats a store of 64 KiB segments on a disk of the given
// sectors, with the write cache on.
func cleanerStore(t *testing.T, sectors int64) (*Store, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: sectors, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 64 << 10, MetaAreaSize: 512 << 10, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// packedShare returns the live and written bytes the cleaner's low mark
// reads (every packed segment but the open one, pinned ones included), and
// how many packed segments it may take are exactly half live, of how many.
func packedShare(s *Store) (live, used int64, half, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned := map[*segment]bool{}
	for _, e := range append(append([]extent(nil), s.chain...), s.prevChain...) {
		pinned[s.segContaining(e.off)] = true
	}
	for _, seg := range s.segs {
		if seg == s.openSeg || seg.size != s.segSize {
			continue
		}
		live, used = live+seg.live, used+seg.used
		if !pinned[seg] {
			n++
			if seg.live*2 == seg.used {
				half++
			}
		}
	}
	return live, used, half, n
}

// checkObjects fails unless every object in want reads back at its
// generation.
func checkObjects(t *testing.T, s *Store, want map[uint64]int, where string) {
	t.Helper()
	for id, gen := range want {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, cleanerObj(id, gen)) {
			t.Fatalf("%s: object %d: %d bytes, %v", where, id, len(got), err)
		}
	}
}

// remount closes s and opens the store on d again.
func remount(t *testing.T, s *Store, d disk.Device) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(d, Options{SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCleanerCompactsHalfLiveSegments is the half-live wedge: a 4 MiB store
// homes, in one checkpoint, as many 4 KiB objects as leave the free list
// cleanReserve whole segments, and every odd one is deleted, so each packed
// segment is exactly half live — above the low mark, and with no segment
// under half live, which was all the cleaner once took.  Checkpoints of
// 32 KiB of new objects each, three times the free space in all, must then
// each commit, the cleaner compacting the half-live segments as the reserve
// runs short; every object reads back after a remount.
func TestCleanerCompactsHalfLiveSegments(t *testing.T) {
	s, d := cleanerStore(t, 1<<13)
	s.mu.Lock()
	n := uint64(s.freeSegs()-cleanReserve-1) * 16
	s.mu.Unlock()
	want := map[uint64]int{}
	for id := uint64(1); id <= n; id++ {
		if err := s.Put(id, cleanerObj(id, 0)); err != nil {
			t.Fatal(err)
		}
		want[id] = 0
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= n; id += 2 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(want, id)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	free := s.freeSegs()
	s.mu.Unlock()
	_, _, half, segs := packedShare(s)
	if free != cleanReserve || half != segs || segs < 16 || s.Stats().SegsCleaned != 0 {
		t.Fatalf("setup: %d of %d packed segments half live, %d whole segments free, %d cleaned; want all of at least 16, %d, 0",
			half, segs, free, s.Stats().SegsCleaned, cleanReserve)
	}
	before := s.FreeBytes()
	id := uint64(1 << 20)
	for written := int64(0); written < 3*before; written += 8 * 4096 {
		for k := 0; k < 8; k++ {
			if err := s.Put(id, cleanerObj(id, 1)); err != nil {
				t.Fatal(err)
			}
			want[id] = 1
			id++
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("after %d new bytes (%d free before them): %v; %d segments cleaned", written, before, err, s.Stats().SegsCleaned)
		}
	}
	if _, _, left, _ := packedShare(s); s.Stats().SegsCleaned == 0 || left > half/2 {
		t.Fatalf("%d segments cleaned and %d of %d half-live segments left; want the cleaner to compact most of them", s.Stats().SegsCleaned, left, half)
	}
	checkObjects(t, s, want, "before the remount")
	checkObjects(t, remount(t, s, d), want, "after the remount")
}

// TestCleanerMarks pins the marks and the greedy order on a store with room
// to spare, so only the low mark can start the cleaner.  Twelve packed
// segments of sixteen 4 KiB objects each keep 9, 5, 1, 7, 3, 5, 8, 2, 6, 4,
// 9 and 5 objects: 64 of 192, exactly a third live, and the cleaner stays
// idle.  One more deletion, in the first segment, puts them below a third,
// and the next checkpoint cleans the least-live segments first and stops
// once half of what is written is live: those keeping 1, 2, 3, 4 and two of
// the three keeping 5 (the lower bases first), which leave 116 objects'
// worth written against 63 live.  The other six keep their objects where
// they were.
func TestCleanerMarks(t *testing.T) {
	s, d := cleanerStore(t, 1<<14)
	keeps := []int{9, 5, 1, 7, 3, 5, 8, 2, 6, 4, 9, 5}
	cleaned := map[int]bool{2: true, 7: true, 4: true, 9: true, 1: true, 5: true}
	id := func(seg, k int) uint64 { return uint64(seg*16 + k + 1) }
	for seg := range keeps {
		for k := 0; k < 16; k++ {
			if err := s.Put(id(seg, k), cleanerObj(id(seg, k), 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for seg := range keeps {
		base := homeIn(s, id(seg, 0)).off
		for k := 0; k < 16; k++ {
			if off := homeIn(s, id(seg, k)).off; off != base+int64(k)*4096 || s.segContaining(base).base != base {
				s.mu.Unlock()
				t.Fatalf("setup: object %d of segment %d homed at %d, want %d at the start of a segment", k, seg, off, base+int64(k)*4096)
			}
		}
	}
	s.mu.Unlock()
	want := map[uint64]int{}
	for seg, keep := range keeps {
		for k := keep; k < 16; k++ {
			if err := s.Delete(id(seg, k)); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < keep; k++ {
			want[id(seg, k)] = 0
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if live, used, _, _ := packedShare(s); live*3 != used || s.Stats().SegsCleaned != 0 {
		t.Fatalf("packed segments %d live of %d written, %d cleaned; want exactly a third and none", live, used, s.Stats().SegsCleaned)
	}
	if err := s.Delete(id(0, keeps[0]-1)); err != nil {
		t.Fatal(err)
	}
	delete(want, id(0, keeps[0]-1))
	was := map[uint64]int64{}
	s.mu.Lock()
	for i := range want {
		was[i] = homeIn(s, i).off
	}
	s.mu.Unlock()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().SegsCleaned; n != 6 {
		t.Fatalf("below the low mark the checkpoint cleaned %d segments; want 6", n)
	}
	s.mu.Lock()
	for seg, keep := range keeps {
		for k := 0; k < keep; k++ {
			if i := id(seg, k); want[i] == 0 && (homeIn(s, i).off != was[i]) != cleaned[seg] {
				s.mu.Unlock()
				t.Fatalf("object %d of segment %d (%d kept) moved from %d to %d; want only the six least-live segments cleaned",
					k, seg, keep, was[i], homeIn(s, i).off)
			}
		}
	}
	s.mu.Unlock()
	checkObjects(t, remount(t, s, d), want, "after the remount")
}

// TestCleanerSteadyStateCost churns a 16 MiB store whose 4 KiB objects fill
// 80 % of the data region: each checkpoint rewrites eight random objects,
// for 600 checkpoints past the first one that cleans.  Every checkpoint must
// commit, and the cleaner must copy at most 2.5 bytes for each byte the
// checkpoints home (greedy cleaning reads about 2.1 here; the rule that took
// every segment under half live, at any occupancy, found no space 67
// checkpoints in, before it had cleaned a byte).  Every object reads back
// after a remount.
func TestCleanerSteadyStateCost(t *testing.T) {
	s, d := cleanerStore(t, 1<<15)
	region := d.Size() - s.metaAreaOff(2)
	n := uint64(region * 80 / 100 / 4096)
	want := map[uint64]int{}
	for id := uint64(1); id <= n; id++ {
		if err := s.Put(id, cleanerObj(id, 0)); err != nil {
			t.Fatal(err)
		}
		want[id] = 0
		if id%16 == 0 || id == n {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	first, cleaned, homed := -1, uint64(0), uint64(0)
	for round := 0; first < 0 || round < first+600; round++ {
		if first < 0 && round == 1000 {
			t.Fatal("1,000 checkpoints at 80 % occupancy and the cleaner never ran")
		}
		for k := 0; k < 8; k++ {
			id := uint64(rng.Intn(int(n))) + 1
			want[id]++
			if err := s.Put(id, cleanerObj(id, want[id])); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); errors.Is(err, ErrNoSpace) {
			t.Fatalf("checkpoint %d (the first to clean: %d): %v, with %d segments cleaned", round, first, err, s.Stats().SegsCleaned)
		} else if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); first < 0 && st.SegsCleaned > 0 {
			first, cleaned, homed = round, st.BytesCleaned, st.BytesHome
		}
	}
	st := s.Stats()
	cost := float64(st.BytesCleaned-cleaned) / float64(st.BytesHome-homed)
	t.Logf("%d objects, %.1f%% of the data region: first cleaning at checkpoint %d, then %.3f bytes cleaned per byte homed; %d segments cleaned",
		n, float64(n*4096)*100/float64(region), first, cost, st.SegsCleaned)
	if cost > 2.5 {
		t.Fatalf("%.3f bytes cleaned per byte homed; want at most 2.5", cost)
	}
	checkObjects(t, remount(t, s, d), want, "after the remount")
}

// TestCheckpointFreesWhatTheLastCommitDropped: a segment a commit drops —
// here eight whole ones, every object in them deleted — stays out of the free
// list until the next commit, so a checkpoint whose data needs that room
// finds no space.  With no deletions of its own to commit first, it must
// commit an empty delta, which frees them, and retry, rather than fail at
// every attempt; every object reads back after a remount.  (A base would free
// them too: 600 small objects make one large enough that no checkpoint here
// writes another.)
func TestCheckpointFreesWhatTheLastCommitDropped(t *testing.T) {
	s, d := cleanerStore(t, 1<<13)
	want := map[uint64]int{}
	for id := uint64(1 << 20); id < 1<<20+600; id++ {
		if err := s.Put(id, []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	rebase(t, s)
	const dropped = 8
	big := func(id uint64) []byte { return bytes.Repeat(cleanerObj(id, 0), 8) } // two a segment
	for id := uint64(1); id <= 2*dropped; id++ {
		if err := s.Put(id, big(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2*dropped; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	free, held := s.freeSegs(), len(s.held)
	s.mu.Unlock()
	if held != dropped {
		t.Fatalf("setup: the commit holds %d dropped segments; want %d", held, dropped)
	}
	for id := uint64(1000); id < 1000+uint64(free+dropped/2)*16; id++ {
		if err := s.Put(id, cleanerObj(id, 1)); err != nil {
			t.Fatal(err)
		}
		want[id] = 1
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("%d segments' worth of objects with %d whole segments free and %d held: %v", free+dropped/2, free, held, err)
	}
	checkObjects(t, remount(t, s, d), want, "after the remount")
}
