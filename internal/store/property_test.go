package store

// Property test: random Put / PutLabeled / Delete / SyncObject / Checkpoint
// / reopen sequences are checked against the same reference model the crash
// harness uses (mirroring the internal/label property-test style).  Without
// fault injection, recovery is deterministic: after a crash-and-reopen the
// store must hold exactly the committed state — every durable object
// present with its committed contents, label, and index entry, and nothing
// else.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

func TestPropStoreMatchesReferenceModel(t *testing.T) {
	nSeeds, nOps := 12, 140
	if testing.Short() {
		nSeeds = 4
	}
	for seed := 0; seed < nSeeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		d := disk.New(disk.Params{Sectors: crashSectors, WriteCache: false}, &vclock.Clock{})
		s, err := Format(d, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		m := newRefModel()
		for i := 0; i < nOps; i++ {
			if r.Intn(12) == 0 {
				// Crash (no cache on a write-through disk: just stop using
				// the store) and reopen: recovered state must be exactly
				// the committed model state.
				s = reopenAndCheck(t, d, m, seed, i)
				continue
			}
			op := genWorkload(r, 1)[0]
			if runWorkload(t, s, []wlOp{op}, m) {
				t.Fatalf("seed %d: unexpected fault", seed)
			}
			// Live-state invariants that hold with no crash at all.
			if op.kind != opCheckpoint {
				checkLiveObject(t, s, op.id, m.latest(op.id))
			}
		}
		// Graceful shutdown is a checkpoint: everything becomes durable.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		m.commitAll()
		reopenAndCheck(t, d, m, seed, nOps)
	}
}

func checkLiveObject(t *testing.T, s *Store, id uint64, want objState) {
	t.Helper()
	data, err := s.Get(id)
	if !want.exists {
		if !errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("Get(%d) = %v, want ErrNoSuchObject", id, err)
		}
		return
	}
	if err != nil || !bytes.Equal(data, want.data) {
		t.Fatalf("Get(%d) = %d bytes, %v; want %d bytes", id, len(data), err, len(want.data))
	}
	lbl, ok := s.Label(id)
	if ok != want.hasLabel || (ok && !lbl.Equal(want.lbl)) {
		t.Fatalf("Label(%d) = %v, %v; want %v, %v", id, lbl, ok, want.lbl, want.hasLabel)
	}
}

// reopenAndCheck opens the image fresh and asserts it equals the model's
// committed state exactly — both directions, including the label index.
func reopenAndCheck(t *testing.T, dev disk.Device, m *refModel, seed, step int) *Store {
	t.Helper()
	s, err := Open(dev, crashOpts)
	if err != nil {
		t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
	}
	for id := range m.history {
		want := m.hist(id)[m.durableIdx[id]]
		// The model continues from the recovered (committed) state: any
		// uncommitted history died with the crash.
		m.history[id] = []objState{want}
		m.durableIdx[id] = 0
		data, err := s.Get(id)
		if !want.exists {
			if !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("seed %d step %d: object %d should be absent, Get = %v", seed, step, id, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(data, want.data) {
			t.Fatalf("seed %d step %d: object %d = %d bytes, %v; want %d bytes", seed, step, id, len(data), err, len(want.data))
		}
		lbl, ok := s.Label(id)
		if ok != want.hasLabel || (ok && !lbl.Equal(want.lbl)) {
			t.Fatalf("seed %d step %d: object %d label = %v, %v; want %v, %v", seed, step, id, lbl, ok, want.lbl, want.hasLabel)
		}
	}
	return s
}
