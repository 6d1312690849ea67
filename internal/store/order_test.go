package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// orderStore formats a store on the paper's disk (seek, rotation and a
// 256 KiB read look-ahead), shrunk to 32 MiB, with the write cache as asked.
func orderStore(t *testing.T, cache bool, segSize int64) (*Store, *disk.Disk) {
	t.Helper()
	p := disk.PaperDisk()
	p.Sectors, p.WriteCache = (32<<20)/disk.SectorSize, cache
	d := disk.New(p, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 1 << 20, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// orderPayload is object id's contents: n bytes that name it.
func orderPayload(id uint64, n int) []byte {
	b := make([]byte, n)
	copy(b, fmt.Sprintf("object %d", id))
	return b
}

// TestCheckpointHomesFollowChangeOrder holds the layout rule of a
// checkpoint: objects are homed in the order they changed, not by ID, so
// files written together are read back in one sweep of the arm.  Objects put
// in descending ID order, then rewritten twice in shuffled ones, must each
// time get homes ascending in put order — the last time by the retry of a
// checkpoint whose metadata flush failed after it had homed them — and read
// back whole after a remount.
func TestCheckpointHomesFollowChangeOrder(t *testing.T) {
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			s, d := orderStore(t, cache, 1<<20)
			var order []uint64
			for id := uint64(300); id > 100; id-- {
				order = append(order, id)
			}
			rng := rand.New(rand.NewSource(1))
			sizes := []int{700, 1500, 900}
			for round, size := range sizes {
				for _, id := range order {
					if err := s.Put(id, orderPayload(id, size)); err != nil {
						t.Fatal(err)
					}
				}
				if round == 2 {
					if err := failCheckpoint(s); !errors.Is(err, errBarrier) {
						t.Fatalf("checkpoint with a failing flush: %v", err)
					}
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				for i := 1; i < len(order); i++ {
					if prev, h := homeIn(s, order[i-1]), homeIn(s, order[i]); h.off <= prev.off {
						s.mu.Unlock()
						t.Fatalf("round %d: object %d, put after %d, is homed at %d, before its %d", round, order[i], order[i-1], h.off, prev.off)
					}
				}
				s.mu.Unlock()
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := Open(d, Options{SegmentSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range order {
				if got, err := s.Get(id); err != nil || string(got) != string(orderPayload(id, sizes[2])) {
					t.Fatalf("object %d after remount: %d bytes, %v", id, len(got), err)
				}
			}
		})
	}
}

// TestCleanerReadsVictimInOffsetOrder holds the cleaner to one sweep of a
// victim segment: 512 objects of 512 bytes, put in shuffled ID order, fill a
// segment in that order at one checkpoint; deleting three of every four
// leaves it a quarter live, under the cleaner's low mark, and the next
// checkpoint cleans it.  Read in offset order, the look-ahead serves nearly
// every read, so that checkpoint costs at most 3 seeks more than a
// checkpoint that writes the same one object and cleans nothing, with the
// write cache off too, because no append moves the head between the reads;
// read in ID order it costs dozens more.  Every object reads back after a
// remount.
func TestCleanerReadsVictimInOffsetOrder(t *testing.T) {
	const segSize, objSize, perSeg = 256 << 10, 512, 512
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			s, d := orderStore(t, cache, segSize)
			rng := rand.New(rand.NewSource(1))
			ids := make([]uint64, perSeg)
			for i, v := range rng.Perm(perSeg) {
				ids[i] = uint64(v + 1)
			}
			for _, id := range ids {
				if err := s.Put(id, orderPayload(id, objSize)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			live := map[uint64]bool{}
			for i, id := range ids {
				if i%4 != 0 {
					if err := s.Delete(id); err != nil {
						t.Fatal(err)
					}
				} else {
					live[id] = true
				}
			}
			// Two checkpoints of one new object each: the first cleans the
			// full segment, the second nothing, so the difference is the
			// cleaner's.
			seeks := func(id uint64) uint64 {
				before, cleaned := d.Stats().Seeks, s.Stats().SegsCleaned
				if err := s.Put(id, orderPayload(id, objSize)); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				live[id] = true
				want := uint64(0)
				if id == perSeg+1 {
					want = 1
				}
				if n := s.Stats().SegsCleaned - cleaned; n != want {
					t.Fatalf("the checkpoint of object %d cleaned %d segments, want %d", id, n, want)
				}
				return d.Stats().Seeks - before
			}
			cleaning, plain := seeks(perSeg+1), seeks(perSeg+2)
			if len(live) < 100 || cleaning > plain+3 {
				t.Fatalf("cleaning a victim of %d live objects took %d seeks, against %d for a checkpoint that cleans nothing; want at most 3 more",
					len(live)-2, cleaning, plain)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := Open(d, Options{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			for id := range live {
				if got, err := s.Get(id); err != nil || string(got) != string(orderPayload(id, objSize)) {
					t.Fatalf("object %d after remount: %d bytes, %v", id, len(got), err)
				}
			}
		})
	}
}

// TestOneObjectCheckpointsWriteFewBases: 256 checkpoints of one new 1 KiB
// object each, on 256 KiB segments, write at most 16 bases.  A base costs
// the superblock's seeks however small it is, so a small store's chain runs
// until it holds maxChainLinks deltas or more bytes than half its base,
// counted as at least a segment.  With a floor of 4 KiB the same run wrote
// 75 bases, each a copy of the whole map in the data region.
func TestOneObjectCheckpointsWriteFewBases(t *testing.T) {
	s, _ := orderStore(t, true, 256<<10)
	bases := 0
	for id := uint64(1); id <= 256; id++ {
		if err := s.Put(id, orderPayload(id, 1<<10)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if len(s.chain) == 1 {
			bases++
		}
	}
	t.Logf("%d bases, %d metadata bytes written", bases, s.Stats().MetaBytesWritten)
	if bases > 16 {
		t.Fatalf("256 one-object checkpoints wrote %d bases; want at most 16", bases)
	}
}
