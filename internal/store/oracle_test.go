package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

// encodeFromScratch is the metadata image a checkpoint would write if it
// walked everything: every home sorted by ID, each followed by the label its
// sealed object carries, encoded afresh, and the segment table, each section
// built on its own and framed after.  It is the oracle for the seal's walk of
// the changed entries and the home table's merges.
func encodeFromScratch(epoch uint64, homes map[uint64]home, labels map[uint64]label.Label, segs []*segment) []byte {
	ids := make([]uint64, 0, len(homes))
	for id := range homes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	objs := appendU64(nil, uint64(len(homes)))
	for _, id := range ids {
		var enc []byte
		if lbl, ok := labels[id]; ok {
			enc = lbl.AppendBinary(nil)
		}
		objs = appendHome(objs, id, homes[id], enc)
	}
	segsSec := appendU64(nil, uint64(len(segs)))
	for _, seg := range segs {
		segsSec = appendU64(appendU64(appendU64(segsSec, uint64(seg.base)), uint64(seg.size)), uint64(seg.used))
	}
	var payload []byte
	for _, sec := range []struct {
		tag  uint64
		body []byte
	}{{secObjMap, objs}, {secSegs, segsSec}} {
		payload = appendU64(appendU64(appendU64(payload, sec.tag), uint64(len(sec.body))), uint64(crc32c(sec.body)))
		payload = append(payload, sec.body...)
	}
	hdr := appendU64(appendU64(appendU64(appendU64(appendU64(nil, metaMagic), metaVersion), epoch), uint64(len(payload))), numSecs)
	hdr = appendU64(hdr, uint64(crc32.Checksum(hdr, castagnoli)))
	return append(hdr, payload...)
}

// oracleObject is what the model says one live object holds.
type oracleObject struct {
	data []byte
	lbl  *label.Label
}

// TestCheckpointImageOracle drives seeded mixes of puts, labelled puts, range
// puts, unlabelled re-creates of deleted objects, deletes, syncs and
// checkpoints — some with a body that races puts, deletes and syncs started
// from ckptGate, some failed at the metadata barrier — against a model.
// After every checkpoint that commits, the metadata image on disk must be
// byte for byte the from-scratch encoding of what the model held at the
// seal, every sealed object homed with its contents' size and CRC and no
// other object homed, and no clean, unquarantined entry may remain in the
// entry table.
func TestCheckpointImageOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { imageOracle(t, seed) })
	}
}

func imageOracle(t *testing.T, seed int64) {
	d := disk.New(disk.Params{Sectors: 1 << 15, WriteCache: true}, &vclock.Clock{}) // 16 MiB
	s, err := Format(disk.NewFaultDisk(d), Options{LogSize: 4 << 20, MetaAreaSize: 512 << 10, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex // guards model, sealed and race against a racing body's goroutine
	model := map[uint64]oracleObject{}
	var sealed map[uint64]oracleObject
	race := false // the next seal starts a racing goroutine
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// op applies one random operation to the store and the model.
	op := func(rng *rand.Rand, syncs bool) {
		mu.Lock()
		defer mu.Unlock()
		id := uint64(1 + rng.Intn(120))
		cur, live := model[id]
		data := make([]byte, 1+rng.Intn(3000))
		rng.Read(data)
		switch k := rng.Intn(10); {
		case k < 3: // a put keeps a live object's label; a re-create has none
			must(s.Put(id, data))
			if !live {
				cur.lbl = nil
			}
			model[id] = oracleObject{data, cur.lbl}
		case k < 5:
			lbl := rotLabel(uint64(rng.Intn(5)))
			must(s.PutLabeled(id, lbl, data, 0, whole))
			model[id] = oracleObject{data, &lbl}
		case k < 6 && live && len(cur.data) > 8: // a range put
			next := append([]byte(nil), cur.data...)
			lo := rng.Intn(len(next) - 4)
			copy(next[lo:lo+4], "meta")
			var enc []byte
			if cur.lbl != nil {
				enc = cur.lbl.AppendBinary(nil)
			}
			must(s.put(id, next, enc, lo, lo+4))
			model[id] = oracleObject{next, cur.lbl}
		case k < 8:
			must(s.Delete(id))
			delete(model, id)
		case syncs:
			ids := []uint64{id, uint64(1 + rng.Intn(120))}
			for _, err := range s.SyncObjects(ids) {
				must(err)
			}
		}
	}
	var racers sync.WaitGroup
	s.ckptGate = func() {
		mu.Lock()
		sealed = make(map[uint64]oracleObject, len(model))
		for id, o := range model {
			sealed[id] = o
		}
		racing := race
		race = false
		mu.Unlock()
		if racing {
			racers.Add(1)
			go func(rng *rand.Rand) {
				defer racers.Done()
				for i := 0; i < 30; i++ {
					op(rng, true)
				}
			}(rand.New(rand.NewSource(rng.Int63())))
		}
	}
	checkpoints := 0
	for step := 0; step < 1500; step++ {
		if rng.Intn(40) != 0 {
			op(rng, true)
			continue
		}
		if rng.Intn(6) == 0 {
			if err := failCheckpoint(s); err == nil {
				t.Fatalf("seed %d step %d: a checkpoint whose barrier failed committed", seed, step)
			}
			continue
		}
		mu.Lock()
		race = rng.Intn(3) == 0
		mu.Unlock()
		err := s.Checkpoint()
		racers.Wait()
		must(err)
		checkpoints++
		checkImage(t, s, d, sealed, fmt.Sprintf("seed %d step %d", seed, step))
	}
	if checkpoints < 20 {
		t.Fatalf("seed %d: only %d checkpoints committed", seed, checkpoints)
	}
}

// checkImage compares the committed metadata image with the from-scratch
// encoding of the sealed model, and checks the entry table keeps nothing
// clean and unquarantined.
func checkImage(t *testing.T, s *Store, d disk.Device, sealed map[uint64]oracleObject, where string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	homes, labels := map[uint64]home{}, map[uint64]label.Label{}
	for id, o := range sealed {
		h, ok := s.homeOf(id)
		if !ok || h.size != int64(len(o.data)) || h.crc != crc32c(o.data) {
			t.Fatalf("%s: object %d homed %v at %+v; the model sealed %d bytes, CRC %#x", where, id, ok, h, len(o.data), crc32c(o.data))
		}
		homes[id] = h
		if o.lbl != nil {
			labels[id] = *o.lbl
		}
	}
	if len(s.homes) != len(homes) {
		t.Fatalf("%s: %d homes; the model sealed %d objects", where, len(s.homes), len(homes))
	}
	want := encodeFromScratch(s.metaEpoch, homes, labels, s.segs)
	got := make([]byte, len(want))
	if _, err := d.ReadAt(got, s.metaAreaOff(s.metaWhich)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the committed metadata image differs from the from-scratch encoding (%d homes, %d labels)", where, len(homes), len(labels))
	}
	for id, e := range s.objs {
		switch {
		case !e.dirty && !e.ckpt && !e.dead && !e.quar:
			t.Fatalf("%s: entry %d is clean and unquarantined, and still in the table", where, id)
		case (e.dirty || e.dead) && !e.listed:
			t.Fatalf("%s: entry %d is dirty or dead and off the changed list", where, id)
		}
	}
	if msg := segLiveMismatch(s); msg != "" {
		t.Fatalf("%s: %s", where, msg)
	}
}

// segLiveMismatch names a segment whose live count is not the bytes of the
// homes inside it, as Open would derive it; the caller holds mu.
func segLiveMismatch(s *Store) string {
	live := map[*segment]int64{}
	for _, h := range s.homes {
		if seg := s.segContaining(h.off); seg != nil {
			live[seg] += align512(h.size)
		}
	}
	for _, seg := range s.segs {
		if seg.live != live[seg] {
			return fmt.Sprintf("segment at %d counts %d live bytes; its homes hold %d", seg.base, seg.live, live[seg])
		}
	}
	return ""
}
