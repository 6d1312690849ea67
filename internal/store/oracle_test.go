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

// encodeFromScratch is the base a checkpoint would write if it walked
// everything: every home sorted by ID, each followed by the label its sealed
// object carries, encoded afresh, the segment table and the pinned chain
// extents, each section built on its own and framed after.  It is the oracle
// for the seal's walk of the changed entries and the home table's merges.
func encodeFromScratch(epoch, chain uint64, run int64, homes map[uint64]home, labels map[uint64]label.Label, segs []*segment, pins []extent) []byte {
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
	pinsSec := appendU64(nil, uint64(len(pins)))
	for _, e := range pins {
		pinsSec = appendU64(appendU64(pinsSec, uint64(e.off)), uint64(e.size))
	}
	var payload []byte
	for _, sec := range []struct {
		tag  uint64
		body []byte
	}{{secObjMap, objs}, {secSegs, segsSec}, {secPins, pinsSec}} {
		payload = appendU64(appendU64(appendU64(payload, sec.tag), uint64(len(sec.body))), uint64(crc32c(sec.body)))
		payload = append(payload, sec.body...)
	}
	hdr := appendU64(appendU64(appendU64(appendU64(appendU64(nil, metaMagic), metaVersion), epoch), uint64(len(payload))), numSecs)
	hdr = appendU64(appendU64(hdr, chain), uint64(run))
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
// from ckptGate, some failed at the first barrier — against a model.  After
// every checkpoint that commits, every sealed object must be homed with its
// contents' size and CRC and no other object homed; the base on disk plus
// its chain, decoded, must be the store's tables, and a base just written
// byte for byte the from-scratch encoding of what the model held at the
// seal; the free list must be the one derived from the tables, never
// anything a body took; and no clean, unquarantined entry may remain in the
// entry table.  A remount at the end must come back to the same tables.
func TestCheckpointImageOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { imageOracle(t, seed) })
	}
}

func imageOracle(t *testing.T, seed int64) {
	d := disk.New(disk.Params{Sectors: 1 << 15, WriteCache: true}, &vclock.Clock{}) // 16 MiB
	s, err := Format(disk.NewFaultDisk(d), Options{LogSize: 4 << 20, SegmentSize: 64 << 10})
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
	checkpoints, bases := 0, 0
	var committed map[uint64]oracleObject // the model at the last seal that committed
	for step := 0; step < 3000; step++ {
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
		if len(s.chain) == 1 {
			bases++
		}
		committed = sealed
		checkImage(t, s, d, sealed, fmt.Sprintf("seed %d step %d", seed, step))
	}
	if checkpoints < 20 {
		t.Fatalf("seed %d: only %d checkpoints committed", seed, checkpoints)
	}
	if bases < 2 || bases == checkpoints {
		t.Fatalf("seed %d: %d of %d checkpoints wrote a base; the oracle needs both kinds", seed, bases, checkpoints)
	}
	s2, err := Open(d, Options{SegmentSize: 64 << 10})
	must(err)
	if got, want := tablesOf(s2), tablesOf(s); got != want {
		t.Fatalf("seed %d: the remount's tables\n  %s\nare not the store's\n  %s", seed, got, want)
	}
	checkImage(t, s2, d, committed, fmt.Sprintf("seed %d remount", seed))
}

// checkImage checks the committed tables against the sealed model and the
// snapshot on disk — the base plus its chain, loaded as Open loads them, and
// a base just written against the from-scratch encoding — and checks the
// entry table keeps nothing clean and unquarantined.
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
	if len(s.chain) == 1 {
		want := encodeFromScratch(s.metaEpoch, s.chainID, s.nextRun, homes, labels, s.segs, s.prevChain)
		got := make([]byte, len(want))
		if _, err := d.ReadAt(got, s.base.ext.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the base written differs from the from-scratch encoding (%d homes, %d labels)", where, len(homes), len(labels))
		}
	}
	loaded := newStore(d, Options{SegmentSize: s.segSize})
	if err := loaded.readSuperblock(); err != nil {
		t.Fatalf("%s: loading the snapshot on disk: %v", where, err)
	}
	if got, want := tablesOf(loaded), tablesOf(s); got != want {
		t.Fatalf("%s: the base and chain on disk decode to\n  %s\nnot the store's tables\n  %s", where, got, want)
	}
	if free, err := s.deriveFree(0, false); err != nil || !slices.Equal(free, s.free) {
		t.Fatalf("%s: the free list is %v; the tables derive %v (%v)", where, s.free, free, err)
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

// tablesOf prints every table a snapshot decodes into, and what is derived
// from them.
func tablesOf(s *Store) string {
	out := fmt.Sprintf("epoch %d, next run %d, chain %v, pinned %v, held %v, free %v, %d homes:", s.metaEpoch, s.nextRun, s.chain, s.prevChain, s.held, s.free, len(s.homes))
	for _, h := range s.homes {
		out += fmt.Sprintf(" %d@%+v/%x", h.id, h.home, h.lbl)
	}
	out += "; segments:"
	for _, seg := range s.segs {
		out += fmt.Sprintf(" %+v", *seg)
	}
	return out
}

// segLiveMismatch names a segment whose live count is not the bytes of the
// homes and chain records inside it, as Open would derive it, or exceeds its
// used mark: each sector counts once.  The caller holds mu.
func segLiveMismatch(s *Store) string {
	live := map[*segment]int64{}
	for _, h := range s.homes {
		if seg := s.segContaining(h.off); seg != nil {
			live[seg] += align512(h.size)
		}
	}
	for _, e := range s.records() {
		if seg := s.segContaining(e.off); seg != nil {
			live[seg] += e.size
		}
	}
	for _, seg := range s.segs {
		if seg.live != live[seg] {
			return fmt.Sprintf("segment at %d counts %d live bytes; its homes and chain records hold %d", seg.base, seg.live, live[seg])
		}
		if seg.live > seg.used {
			return fmt.Sprintf("segment at %d counts %d live bytes of %d used", seg.base, seg.live, seg.used)
		}
	}
	return ""
}
