package store

// Handed arrays: a put of every byte, or any put of an object of at most
// handPage bytes, leaves the caller's array with the store (the kernel.Pager
// contract), so nothing in the store may write one.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// handedPuts plays the kernel's side of the contract over one store: it
// hands arrays over, writes each next version into a copy (the kernel's
// copy-on-write break) and remembers every array handed, with its bytes then.
type handedPuts struct {
	t    *testing.T
	s    *Store
	mu   sync.Mutex
	cur  map[uint64][]byte // the last bytes put, by object
	kept [][2][]byte       // each handed array and a copy of its bytes when put
}

// put installs id's next version: cur with b at off, pushed as the range it
// changed, or as a whole when wholePush.  Only id's own goroutine calls it.
func (h *handedPuts) put(id uint64, off int, b string, wholePush bool) {
	h.mu.Lock()
	next := append([]byte(nil), h.cur[id]...)
	h.mu.Unlock()
	copy(next[off:], b)
	lo, hi := off, off+len(b)
	if wholePush {
		lo, hi = 0, whole
	}
	if err := h.s.PutLabeled(id, rotLabel(id), next, lo, hi); err != nil {
		h.t.Error(err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cur[id] = next
	if wholePush || len(next) <= handPage {
		h.kept = append(h.kept, [2][]byte{next, append([]byte(nil), next...)})
	}
}

// check fails the test if any handed array has changed since its put.
func (h *handedPuts) check(when string) {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, k := range h.kept {
		if !bytes.Equal(k[0], k[1]) {
			h.t.Fatalf("%s: handed array %d of %d changed after its put", when, i, len(h.kept))
		}
	}
}

func newHandedPuts(t *testing.T, s *Store, sizes map[uint64]int) *handedPuts {
	h := &handedPuts{t: t, s: s, cur: make(map[uint64][]byte)}
	for id, n := range sizes {
		h.cur[id] = bytes.Repeat([]byte{byte('a' + id)}, n)
		h.put(id, 0, "", true)
	}
	return h
}

// TestHandedArraysStayAsHanded: no range put, sync seal or checkpoint writes
// an array the store was handed, whether a whole log record, a range record
// or a checkpoint capture aliases it; and a sync record that aliases one
// replays byte-exact after a crash, label included.
func TestHandedArraysStayAsHanded(t *testing.T) {
	s, d := testStore(t)
	const big, small = 1, 2
	h := newHandedPuts(t, s, map[uint64]int{big: 64 << 10, small: 1000})
	syncAll := func(when string) {
		t.Helper()
		for _, err := range s.SyncObjects([]uint64{big, small}) {
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		h.check(when)
	}
	h.put(big, 7, "range", false) // the store takes a copy of its own
	h.check("a range put after a whole one")
	syncAll("whole records")
	h.put(big, 5000, "range", false) // again: the record aliases its copy
	h.put(small, 10, "range", false) // handed: at most a page
	h.check("range puts after the syncs")
	syncAll("range records")
	h.put(big, 6000, "patched", false) // patches the store's copy in place
	h.put(small, 20, "patched", false)
	h.check("range puts after the range syncs")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h.check("a checkpoint")
	h.put(big, 100, "after the checkpoint", true)
	h.put(small, 30, "after the checkpoint", false)
	syncAll("whole records after the checkpoint")
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range h.cur {
		got, err := s2.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("object %d after the crash: %v, or the bytes differ", id, err)
		}
		if lbl, ok := s2.Label(id); !ok || !lbl.Equal(rotLabel(id)) {
			t.Errorf("object %d after the crash: label %v, %v", id, lbl, ok)
		}
	}
}

// TestHandedArraysBesideCheckpoint is a -race target: writers hand the store
// each next version of their objects — range puts of small ones, whole puts of
// larger ones, with syncs between — reading the last array handed as the
// kernel's copy-on-write break does, while checkpoints run in a loop.  A store
// that wrote a handed array shows as a race, or as a changed array.
func TestHandedArraysBesideCheckpoint(t *testing.T) {
	const writers, iters = 4, 60
	s, _ := testStore(t)
	sizes := make(map[uint64]int)
	for w := uint64(0); w < writers; w++ {
		sizes[2*w+1], sizes[2*w+2] = 512, 3*handPage
	}
	h := newHandedPuts(t, s, sizes)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := uint64(0); w < writers; w++ {
		small, big := 2*w+1, 2*w+2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tag := fmt.Sprint(i)
				h.put(small, i%500, tag, false)
				h.put(big, i*32, tag, i%2 == 0)
				if i%8 == 0 {
					for _, err := range s.SyncObjects([]uint64{small, big}) {
						if err != nil {
							t.Error(err)
						}
					}
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.check("the last checkpoint")
	for id, want := range h.cur {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("object %d: %v, or the bytes differ from its last put", id, err)
		}
	}
}
