package store

// Tests for aliases: what Alias refuses, refcount accounting against the
// cleaner and the derived free list, WAL and metadata-snapshot durability,
// and the crash and bit-rot matrices over snapshot/clone-shaped workloads (a
// "snapshot" here is what the kernel makes of one: an alias somebody holds
// on to; a "clone" is an alias of that).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

// extentRefs reports how many object-map entries share the extent at off (1
// for an ordinary owner) and how many extents are shared at all.
func extentRefs(s *Store, off int64) (refs int64, shared int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if refs = s.extRefs[off]; refs == 0 {
		refs = 1
	}
	return refs, len(s.extRefs)
}

// lockedHome reads id's home record under mu.
func lockedHome(s *Store, id uint64) (home, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.homeOf(id)
}

func aliasPayload(id uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(i) + id*31)
	}
	return b
}

// alias1 is an Alias call of one pair, for the tests that make them one at a
// time.
func alias1(s *Store, src, dst uint64, lbl label.Label) error {
	return s.Alias([]uint64{src}, []uint64{dst}, []label.Label{lbl})[0]
}

func mustAlias(t *testing.T, s *Store, src, dst uint64, lbl label.Label) {
	t.Helper()
	if err := alias1(s, src, dst, lbl); err != nil {
		t.Fatalf("Alias(%d, %d): %v", src, dst, err)
	}
}

func TestBundleSnapshotCloneBasic(t *testing.T) {
	s, _ := testStore(t)
	want := make(map[uint64][]byte)
	for i := uint64(1); i <= 4; i++ {
		want[i] = aliasPayload(i, 2048)
		if err := s.PutLabeled(i, rotLabel(i), want[i], 0, whole); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The snapshot's hold (50+i), then a clone of each held object (100+i):
	// contents come along by reference, the label is the caller's.  An alias
	// is O(metadata) on disk: no home write, one 24-byte record.
	home0, logged0, commits0 := s.Stats().BytesHome, s.Stats().BytesLogged, s.WALStats().Commits
	for i := uint64(1); i <= 4; i++ {
		mustAlias(t, s, i, 50+i, rotLabel(i))
		mustAlias(t, s, 50+i, 100+i, rotLabel(i+1))
		got, err := s.Get(100 + i)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("clone %d = %d bytes, %v", 100+i, len(got), err)
		}
		lbl, has := s.Label(100 + i)
		if !has || !lbl.Equal(rotLabel(i+1)) {
			t.Fatalf("clone %d label = %v, %v", 100+i, lbl, has)
		}
	}
	if st := s.Stats(); st.BytesHome != home0 || st.BytesLogged != logged0+8*aliasBodySize || s.WALStats().Commits != commits0+8 {
		t.Fatalf("8 aliases wrote %d home bytes, logged %d bytes in %d commits; want 0, %d and 8",
			st.BytesHome-home0, st.BytesLogged-logged0, s.WALStats().Commits-commits0, 8*aliasBodySize)
	}
	// The source, the hold and the clone are three names for one extent.
	src, _ := lockedHome(s, 1)
	held, _ := lockedHome(s, 51)
	dst, _ := lockedHome(s, 101)
	if src != held || src != dst {
		t.Fatalf("homes %+v, %+v, %+v: want one", src, held, dst)
	}
	if refs, shared := extentRefs(s, src.off); refs != 3 || shared != 4 {
		t.Fatalf("extent of object 1 has %d referents, %d extents shared; want 3 and 4", refs, shared)
	}
	if got := s.Stats().LiveObjects; got != 12 {
		t.Fatalf("%d live objects, want 12: an alias is an object", got)
	}
	// A rewrite of the clone diverges it (copy-on-write at checkpoint
	// granularity) without touching the others.
	if err := s.Put(101, []byte("diverged")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(101); err != nil || string(got) != "diverged" {
		t.Fatalf("rewritten clone = %q, %v", got, err)
	}
	for _, id := range []uint64{1, 51} {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, want[1]) {
			t.Fatalf("object %d changed by the clone's rewrite: %d bytes, %v", id, len(got), err)
		}
	}
	if moved, _ := lockedHome(s, 101); moved.off == src.off {
		t.Fatal("rewritten clone still aliases the shared extent")
	}
	if refs, _ := extentRefs(s, src.off); refs != 2 {
		t.Fatalf("extent of object 1 has %d referents after the clone left, want 2", refs)
	}
}

// TestAliasBatchIsOneCommit: one Alias call of many pairs is one WAL commit,
// and each pair answers in its own slot: a refused pair fails typed while the
// others of its call are made.
func TestAliasBatchIsOneCommit(t *testing.T) {
	s, _ := testStore(t)
	for i := uint64(1); i <= 3; i++ {
		if err := s.PutLabeled(i, rotLabel(i), aliasPayload(i, 512), 0, whole); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commits := s.WALStats().Commits
	lbls := []label.Label{rotLabel(4), rotLabel(5), rotLabel(6)}
	if errs := s.Alias([]uint64{1, 2, 3}, []uint64{11, 12, 13}, lbls); errors.Join(errs...) != nil || len(errs) != 3 {
		t.Fatalf("a batch of three aliases: %v", errs)
	}
	if got := s.WALStats().Commits - commits; got != 1 {
		t.Errorf("a batch of three aliases took %d commits, want 1", got)
	}
	for i := uint64(1); i <= 3; i++ {
		if got, err := s.Get(10 + i); err != nil || !bytes.Equal(got, aliasPayload(i, 512)) {
			t.Errorf("alias %d = %d bytes, %v", 10+i, len(got), err)
		}
	}
	errs := s.Alias([]uint64{1, 99}, []uint64{21, 22}, lbls[:2])
	if errs[0] != nil || !errors.Is(errs[1], ErrNoSuchObject) {
		t.Errorf("a batch with a missing source: %v, want nil and ErrNoSuchObject", errs)
	}
	if _, err := s.Get(21); err != nil {
		t.Errorf("the good pair of a batch with a bad one: %v", err)
	}
	if errs := s.Alias(nil, nil, nil); len(errs) != 0 {
		t.Errorf("an empty batch: %v", errs)
	}
}

func TestBundleCaptureRejections(t *testing.T) {
	s, _ := testStore(t)
	pub := label.New(label.L1)
	if err := s.Put(1, []byte("committed later")); err != nil {
		t.Fatal(err)
	}
	// Missing source; a source that was never checkpointed.
	if err := alias1(s, 99, 50, pub); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("alias of a missing object = %v", err)
	}
	if err := alias1(s, 1, 50, pub); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("alias of a never-checkpointed object = %v", err)
	}
	// Dirty source: what a writer racing the caller's checkpoint looks like.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("dirty again")); err != nil {
		t.Fatal(err)
	}
	if err := alias1(s, 1, 50, pub); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("alias of a dirty object = %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Occupied destination: in memory only, committed, and the source itself.
	if err := s.Put(50, []byte("here first")); err != nil {
		t.Fatal(err)
	}
	if err := alias1(s, 1, 50, pub); !errors.Is(err, ErrCloneExists) {
		t.Fatalf("alias onto an occupied id = %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.EvictCache()
	for _, dst := range []uint64{50, 1} {
		if err := alias1(s, 1, dst, pub); !errors.Is(err, ErrCloneExists) {
			t.Fatalf("alias onto committed id %d = %v", dst, err)
		}
	}
	// A deleted source, before and after the deletion is checkpointed.
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := alias1(s, 1, 60, pub); !errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("alias of a deleted object (round %d) = %v", round, err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// No refusal left anything behind.
	if _, err := s.Get(60); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("a refused alias left its destination behind: %v", err)
	}
	if _, shared := extentRefs(s, 0); shared != 0 {
		t.Fatalf("%d extents counted shared after nothing but refusals", shared)
	}
}

func TestBundleCloneLabelOverride(t *testing.T) {
	s, _ := testStore(t)
	if err := s.PutLabeled(1, rotLabel(1), aliasPayload(1, 256), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	over := label.New(label.L1, label.P(label.Category(40), label.L3), label.P(label.Category(41), label.L0))
	mustAlias(t, s, 1, 10, over)
	lbl, has := s.Label(10)
	if !has || !lbl.Equal(over) {
		t.Fatalf("overridden label = %v, %v", lbl, has)
	}
	src, _ := s.Label(1)
	if src.Equal(over) {
		t.Fatal("override leaked onto the source")
	}
}

// TestBundlePinsBlockReclaimUntilDelete: an alias is the pin.  Rewriting and
// deleting every source must not free the extents the aliases read — aliases
// of aliases keep working — and when the last referent goes the space is
// back, to the byte.
func TestBundlePinsBlockReclaimUntilDelete(t *testing.T) {
	s, _ := testStore(t)
	const n, size = 8, 1 << 18
	// One small bystander keeps a segment open before and after, so the two
	// FreeBytes readings compare like with like.
	if err := s.Put(999, []byte("bystander")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	start := s.FreeBytes()
	want := make(map[uint64][]byte)
	for i := uint64(1); i <= n; i++ {
		want[i] = aliasPayload(i, size)
		if err := s.Put(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		mustAlias(t, s, i, 50+i, label.New(label.L1))
	}
	// Rewrite half the sources, then drop them all, and checkpoint repeatedly
	// so the derived free list and the segment cleaner both get their chance
	// at the extents.
	for i := uint64(1); i <= n; i++ {
		if i%2 == 0 {
			if err := s.Put(i, []byte("the master moved on")); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if free := s.FreeBytes(); free > start-n*size {
		t.Fatalf("%d bytes free while %d aliases of %d bytes live (started with %d)", free, n, size, start)
	}
	s.EvictCache()
	for i := uint64(1); i <= n; i++ {
		mustAlias(t, s, 50+i, 100+i, label.New(label.L1))
		got, err := s.Get(100 + i)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("alias %d of the hold on deleted source %d = %d bytes, %v", 100+i, i, len(got), err)
		}
	}
	// Drop the holds: the second-generation aliases alone keep the bytes.
	for i := uint64(1); i <= n; i++ {
		if err := s.Delete(50 + i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.EvictCache()
	if got, err := s.Get(101); err != nil || !bytes.Equal(got, want[1]) {
		t.Fatalf("last referent of extent 1 = %d bytes, %v", len(got), err)
	}
	if _, shared := extentRefs(s, 0); shared != 0 {
		t.Fatalf("%d extents still counted shared with one referent each", shared)
	}
	for i := uint64(1); i <= n; i++ {
		if err := s.Delete(100 + i); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if after := s.FreeBytes(); after != start {
		t.Errorf("free bytes %d after the last referent went, want the %d there were at the start", after, start)
	}
}

// TestBundleSurvivesCrashViaWAL: aliases — of a source, and of an alias — are
// durable the moment the calls return, before any later checkpoint.
func TestBundleSurvivesCrashViaWAL(t *testing.T) {
	s, d := testStore(t)
	data := aliasPayload(1, 4096)
	if err := s.PutLabeled(1, rotLabel(1), data, 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	over := label.New(label.L1, label.P(label.Category(9), label.L0))
	mustAlias(t, s, 1, 2, rotLabel(1))
	mustAlias(t, s, 2, 3, over)
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.RecoveryReport(); rep.WALRecordsReplayed != 2 || rep.Degraded() {
		t.Fatalf("recovery = %+v, want two alias records replayed on a clean mount", rep)
	}
	for _, id := range []uint64{2, 3} {
		got, err := s2.Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("alias %d after crash = %d bytes, %v", id, len(got), err)
		}
	}
	if lbl, has := s2.Label(2); !has || !lbl.Equal(rotLabel(1)) {
		t.Fatalf("alias 2 label after crash = %v, %v", lbl, has)
	}
	if lbl, has := s2.Label(3); !has || !lbl.Equal(over) {
		t.Fatalf("alias 3 label after crash = %v, %v", lbl, has)
	}
	h, _ := lockedHome(s2, 1)
	if refs, _ := extentRefs(s2, h.off); refs != 3 {
		t.Fatalf("replayed extent has %d referents, want 3", refs)
	}
	// The replayed aliases still share: a rewrite of one must not disturb
	// the other or the source.
	if err := s2.Put(2, []byte("private now")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(3); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("alias 3 after sibling rewrite = %d bytes, %v", len(got), err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("source after alias rewrite = %d bytes, %v", len(got), err)
	}
}

// TestCloneRecordRidesTheCommitter: an alias record reaches the log the way a
// sync record does — enqueued with the committer, acknowledged by its batch's
// commit.  With the committer held the alias blocks on a ticket; once
// released it is durable across a crash, whether its batch commits to the log
// or (small-log) is refused whole and falls back to a checkpoint.
func TestCloneRecordRidesTheCommitter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		logSize int64
		crowd   int // bytes synced beside the alias; with the small log the batch cannot fit
	}{{"log", 1 << 20, 0}, {"small-log-checkpoint-fallback", 64 << 10, 40 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
			s, err := Format(d, Options{LogSize: tc.logSize})
			if err != nil {
				t.Fatal(err)
			}
			data := aliasPayload(1, 4096)
			if err := s.PutLabeled(1, rotLabel(1), data, 0, whole); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if tc.crowd > 0 {
				if err := s.Put(50, aliasPayload(50, tc.crowd)); err != nil {
					t.Fatal(err)
				}
				if err := s.SyncObject(50); err != nil {
					t.Fatal(err)
				}
				if err := s.Put(51, aliasPayload(51, tc.crowd)); err != nil {
					t.Fatal(err)
				}
			}
			over := label.New(label.L1, label.P(label.Category(9), label.L0))
			s.holdGroupCommit()
			done := make(chan error, 2)
			go func() { done <- alias1(s, 1, 2, over) }()
			queued := 1
			if tc.crowd > 0 {
				go func() { done <- s.SyncObject(51) }()
				queued = 2
			}
			for deadline := time.Now().Add(10 * time.Second); s.groupQueueLen() < queued; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d records queued: the alias record bypassed the committer", s.groupQueueLen(), queued)
				}
				time.Sleep(100 * time.Microsecond)
			}
			select {
			case err := <-done:
				t.Fatalf("an operation returned (%v) while the committer was held", err)
			default:
			}
			ckpts := s.Stats().Checkpoints
			s.releaseGroupCommit()
			for i := 0; i < queued; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if fellBack := s.Stats().Checkpoints > ckpts; fellBack != (tc.crowd > 0) {
				t.Fatalf("checkpoint fallback taken = %v, want %v", fellBack, tc.crowd > 0)
			}
			d.Crash()
			s2, err := Open(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := s2.Get(2); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("acknowledged alias after crash = %d bytes, %v", len(got), err)
			}
			if lbl, has := s2.Label(2); !has || !lbl.Equal(over) {
				t.Fatalf("acknowledged alias's label after crash = %v, %v", lbl, has)
			}
		})
	}
}

// TestBundlePersistsInMetadataSnapshot: from the first checkpoint after it
// was made an alias is an object-map entry like any other, so it survives
// remounts whose WAL generations have long been reclaimed — and the source's
// deletion besides.
func TestBundlePersistsInMetadataSnapshot(t *testing.T) {
	s, d := testStore(t)
	if err := s.Put(1, aliasPayload(1, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustAlias(t, s, 1, 2, rotLabel(2))
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	// Churn enough checkpoints that the alias record's generation is gone.
	for i := 0; i < 4; i++ {
		if err := s.Put(1000+uint64(i), aliasPayload(uint64(i), 64)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.RecoveryReport(); rep.WALRecordsReplayed != 0 {
		t.Fatalf("%d records replayed: the alias is not being read from the snapshot", rep.WALRecordsReplayed)
	}
	if lbl, has := s2.Label(2); !has || !lbl.Equal(rotLabel(2)) {
		t.Fatalf("alias label after checkpointed remount = %v, %v", lbl, has)
	}
	mustAlias(t, s2, 2, 5, label.New(label.L1))
	if got, err := s2.Get(5); err != nil || !bytes.Equal(got, aliasPayload(1, 1024)) {
		t.Fatalf("alias of the remounted alias = %d bytes, %v", len(got), err)
	}
}

// TestAliasWaitsOutAnOpenBody: while a checkpoint body is open the home table
// in memory is ahead of the committed one, so an alias asked for then must
// not be acknowledged on the strength of a record naming a home read in that
// state.  Power fails before the open body commits: the alias was either
// never acknowledged or reads back its bytes.
func TestAliasWaitsOutAnOpenBody(t *testing.T) {
	for _, powerFails := range []bool{true, false} {
		s, fd := newCrashRig(t)
		data := aliasPayload(1, 3000)
		if err := s.Put(1, data); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Something for the body to relocate, so the tables really differ.
		if err := s.Put(7, aliasPayload(7, 500)); err != nil {
			t.Fatal(err)
		}
		entered, release := make(chan struct{}), make(chan struct{})
		s.ckptGate = func() {
			s.ckptGate = nil // the alias's own checkpoint must not stop here
			close(entered)
			<-release
		}
		ckptDone := make(chan error, 1)
		go func() { ckptDone <- s.Checkpoint() }()
		<-entered
		aliasDone := make(chan error, 1)
		go func() { aliasDone <- alias1(s, 1, 2, rotLabel(2)) }()
		select {
		case err := <-aliasDone:
			t.Fatalf("Alias returned (%v) while a checkpoint body was open", err)
		case <-time.After(20 * time.Millisecond):
		}
		if _, ok := lockedHome(s, 2); ok {
			t.Fatal("the alias was installed while a checkpoint body was open")
		}
		if powerFails {
			fd.Arm(0, disk.FaultOmit)
		}
		close(release)
		ckptErr, aliasErr := <-ckptDone, <-aliasDone
		if powerFails != errors.Is(ckptErr, disk.ErrFault) {
			t.Fatalf("checkpoint = %v with powerFails = %v", ckptErr, powerFails)
		}
		s2, err := Open(fd.Inner(), crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s2.Get(2)
		switch {
		case aliasErr == nil && (err != nil || !bytes.Equal(got, data)):
			t.Fatalf("powerFails = %v: acknowledged alias recovered as %d bytes, %v", powerFails, len(got), err)
		case aliasErr != nil && !errors.Is(err, ErrNoSuchObject) && !bytes.Equal(got, data):
			t.Fatalf("powerFails = %v: refused alias (%v) recovered as %d bytes, %v", powerFails, aliasErr, len(got), err)
		case !powerFails && aliasErr != nil:
			t.Fatalf("Alias after the body closed: %v", aliasErr)
		}
	}
}

// TestAliasRecordWithoutAnchorQuarantines: replay re-aliases by offset, and
// only the snapshot it replays onto can vouch for what lies there.  When a
// metadata fallback mounts a snapshot older than the one the record was
// written against, no loaded object holds the extent: the destination comes
// back quarantined, typed, never as whatever bytes the offset has now.
func TestAliasRecordWithoutAnchorQuarantines(t *testing.T) {
	s, fd := rotStore(t)
	if err := s.Put(1, aliasPayload(1, 700)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustAlias(t, s, 1, 2, rotLabel(2))
	// The snapshot holding object 1 rots; the one before it is empty.
	if err := fd.RotBits(disk.Region{Off: s.metaAreaOff(s.metaWhich), Len: mhCRCOff}, 3, 7); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.RecoveryReport().MetaFallback {
		t.Fatalf("expected a metadata fallback, got %+v", s2.RecoveryReport())
	}
	var qe *QuarantineError
	if _, err := s2.Get(2); !errors.As(err, &qe) || qe.ID != 2 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("alias whose extent no loaded object holds = %v; want a QuarantineError for object 2", err)
	}
	if err := alias1(s2, 2, 3, rotLabel(3)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("alias of the quarantined destination = %v", err)
	}
}

// TestCleanerLeavesSharedExtentsInPlace pins the cleaner's one rule about
// sharing: a segment holding a shared extent is not cleaned, however dead
// the rest of it, so no byte of the extent is copied (once per referent) or
// reclaimed while a referent lives; when the sharing ends the segment is
// cleaned like any other.
func TestCleanerLeavesSharedExtentsInPlace(t *testing.T) {
	s, _ := rotStore(t) // 64 KB segments
	// One segment exactly: the shared extent plus filler that will die.
	shared := aliasPayload(1, 4096)
	if err := s.Put(1, shared); err != nil {
		t.Fatal(err)
	}
	for id := uint64(10); id < 25; id++ {
		if err := s.Put(id, aliasPayload(id, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustAlias(t, s, 1, 2, rotLabel(2))
	mustAlias(t, s, 2, 3, rotLabel(3))
	before, _ := lockedHome(s, 1)
	// Kill the filler and roll the open segment over, so the first segment is
	// sealed and far more than half dead.
	for id := uint64(10); id < 25; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(100); id < 116; id++ {
		if err := s.Put(id, aliasPayload(id, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	for _, id := range []uint64{1, 2, 3} {
		if h, _ := lockedHome(s, id); h != before {
			t.Fatalf("referent %d moved to %+v from %+v while the extent was shared", id, h, before)
		}
	}
	if refs, _ := extentRefs(s, before.off); refs != 3 || st.BytesCleaned != 0 || st.SegsCleaned != 0 {
		t.Fatalf("shared extent has %d referents; cleaner copied %d bytes out of %d segments; want 3, 0, 0", refs, st.BytesCleaned, st.SegsCleaned)
	}
	s.EvictCache()
	for _, id := range []uint64{1, 2, 3} {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, shared) {
			t.Fatalf("referent %d = %d bytes, %v", id, len(got), err)
		}
	}
	// Two referents go; the survivor is an ordinary object in a half-dead
	// segment, and is cleaned out of it.
	for _, id := range []uint64{1, 2} {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := lockedHome(s, 3); h.off == before.off || s.Stats().BytesCleaned != uint64(len(shared)) {
		t.Fatalf("last referent at %+v, %d bytes cleaned; want it moved, once", h, s.Stats().BytesCleaned)
	}
	s.EvictCache()
	if got, err := s.Get(3); err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("last referent after the move = %d bytes, %v", len(got), err)
	}
}

// --- crash matrix over snapshot/clone workloads ----------------------------

// runAliasWorkload drives the fixed snapshot/clone/cleaner sequence until
// the armed fault fires, keeping the model in step.  The sequence covers the
// matrix cases: crash mid-snapshot (inside the capture checkpoint or a hold's
// alias record), mid-clone (inside an alias-of-an-alias record commit), and
// mid-cleaner with shared extents live (the checkpoints after the source
// deletes).
func runAliasWorkload(t *testing.T, s *Store, m *refModel) bool {
	t.Helper()
	fault := func(err error) bool {
		if err == nil {
			return false
		}
		if errors.Is(err, disk.ErrFault) {
			return true
		}
		t.Fatalf("alias workload op failed with non-fault error: %v", err)
		return true
	}
	src := func(i uint64) objState {
		return objState{exists: true, data: aliasPayload(i, 900+int(i)), lbl: rotLabel(i), hasLabel: true}
	}
	alias := func(from, to, of uint64) bool {
		if fault(alias1(s, from, to, rotLabel(of))) {
			return true
		}
		m.push(to, src(of))
		m.commit(to) // alias records are committed on return
		return false
	}
	for i := uint64(1); i <= 6; i++ {
		st := src(i)
		if fault(s.PutLabeled(i, st.lbl, st.data, 0, whole)) {
			return true
		}
		m.push(i, st)
		if fault(s.SyncObject(i)) {
			return true
		}
		m.commit(i)
	}
	// The snapshot: a checkpoint, then a hold on every object.
	if fault(s.Checkpoint()) {
		return true
	}
	m.commitAll()
	for i := uint64(1); i <= 6; i++ {
		if alias(i, 50+i, i) {
			return true
		}
	}
	for i := uint64(1); i <= 3; i++ {
		if alias(50+i, 100+i, i) {
			return true
		}
	}
	// Diverge one clone: its rewrite must not bleed into the shared extent.
	re := objState{exists: true, data: []byte("rewritten-101"), lbl: rotLabel(1), hasLabel: true}
	if fault(s.Put(101, re.data)) {
		return true
	}
	m.push(101, re)
	if fault(s.SyncObject(101)) {
		return true
	}
	m.commit(101)
	// Delete sources while their aliases live, then checkpoint twice: the
	// cleaner and the free list's derivation run against shared extents.
	for _, i := range []uint64{4, 5} {
		if fault(s.Delete(i)) {
			return true
		}
		m.push(i, objState{exists: false})
	}
	for round := 0; round < 2; round++ {
		if fault(s.Checkpoint()) {
			return true
		}
		m.commitAll()
	}
	// A clone of a deleted source: only the hold keeps these bytes.  Then the
	// hold itself goes, synced, and the clone is the last referent.
	if alias(54, 104, 4) {
		return true
	}
	if fault(s.Delete(54)) {
		return true
	}
	m.push(54, objState{exists: false})
	if fault(s.SyncObject(54)) {
		return true
	}
	m.commit(54)
	return false
}

// verifyAliasRecovery checks the reopened image: every committed object and
// alias via the generic model, then the sharing itself — a hold that came
// back must still alias byte-exact.
func verifyAliasRecovery(t *testing.T, dev disk.Device, m *refModel, point string) {
	t.Helper()
	s := verifyRecovery(t, dev, m, point)
	if t.Failed() {
		return
	}
	// Object 6 and its hold are never deleted or rewritten by the workload,
	// so a fresh alias of the hold must reproduce the source's bytes exactly.
	if _, err := s.Get(56); errors.Is(err, ErrNoSuchObject) {
		return // crashed before the hold on 6 was acknowledged
	}
	if err := alias1(s, 56, 900, rotLabel(6)); err != nil {
		t.Errorf("%s: alias of the recovered hold: %v", point, err)
		return
	}
	want := aliasPayload(6, 906)
	if got, err := s.Get(900); err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s: alias of the recovered hold = %d bytes, %v; want %d bytes", point, len(got), err, len(want))
	}
}

// TestCrashDuringBundleOpsEveryPoint replays the snapshot/clone workload
// with a fault injected at every write boundary a fault-free pass recorded
// (plus torn midpoints), reopening and verifying each time: no acknowledged
// alias is lost, no shared extent is reclaimed while referenced, and a
// recovered hold aliases back byte-exact.
func TestCrashDuringBundleOpsEveryPoint(t *testing.T) {
	// Fault-free pass: learn the write boundaries.
	s, fd := newCrashRig(t)
	fd.Arm(-1, disk.FaultTorn)
	clean := newRefModel()
	if runAliasWorkload(t, s, clean) {
		t.Fatal("fault-free alias pass crashed")
	}
	verifyAliasRecovery(t, fd.Inner(), clean, "clean")
	if t.Failed() {
		return
	}
	points := crashPoints(fd.WriteBounds())
	if testing.Short() {
		// Every third point still lands inside snapshots, clones, and the
		// cleaner checkpoints.
		thin := points[:0]
		for i, p := range points {
			if i%3 == 0 {
				thin = append(thin, p)
			}
		}
		points = thin
	}
	for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit} {
		for _, pt := range points {
			s, fd := newCrashRig(t)
			fd.Arm(pt, mode)
			m := newRefModel()
			crashed := runAliasWorkload(t, s, m)
			if !crashed && fd.Tripped() {
				t.Fatalf("alias %v@%d: fault tripped but no op reported it", mode, pt)
			}
			verifyAliasRecovery(t, fd.Inner(), m, fmt.Sprintf("alias %v@%d", mode, pt))
			if t.Failed() {
				return // one failing crash point is enough detail
			}
		}
	}
}

// --- bit-rot ladder over shared extents ------------------------------------

// TestBitRotSharedExtentQuarantinesEveryClone extends the rot ladder to
// shared extents: damage in an extent shared by a source, a snapshot's hold
// and several clones quarantines every referent with typed errors, refuses
// further aliases of any of them — and never serves the bad bytes.
func TestBitRotSharedExtentQuarantinesEveryClone(t *testing.T) {
	// Whichever read path touches the rotted extent first — a Get through a
	// clone, or a scrub pass — the verdict must reach every referent.
	t.Run("first-touch-get", func(t *testing.T) {
		testSharedExtentRot(t, func(s *Store) {
			if _, err := s.Get(11); !errors.Is(err, ErrQuarantined) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(clone) over rotted extent = %v", err)
			}
		})
	})
	t.Run("first-touch-scrub", func(t *testing.T) {
		testSharedExtentRot(t, func(s *Store) {
			if st, err := s.Scrub(); err != nil || st.ObjectsQuarantined != 5 {
				t.Fatalf("scrub over rotted shared extent = %+v, %v; want 5 objects quarantined", st, err)
			}
		})
	})
}

func testSharedExtentRot(t *testing.T, firstTouch func(*Store)) {
	s, fd := rotStore(t)
	data := aliasPayload(1, 8192)
	if err := s.PutLabeled(1, rotLabel(1), data, 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLabeled(2, rotLabel(2), aliasPayload(2, 512), 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The snapshot's holds (51, 52), then three clones of the first.
	mustAlias(t, s, 1, 51, rotLabel(1))
	mustAlias(t, s, 2, 52, rotLabel(2))
	for _, dst := range []uint64{11, 12, 13} {
		mustAlias(t, s, 51, dst, rotLabel(1))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Remount cold so reads come from the (rotted) extent, then damage the
	// shared extent with an odd flip count (deterministically detected).
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := s2.homeOf(1)
	if !ok {
		t.Fatal("source has no home extent")
	}
	if err := fd.RotBits(disk.Region{Off: h.off, Len: int64(len(data))}, 1, 21); err != nil {
		t.Fatal(err)
	}
	// Detection must propagate to the source, the hold and every clone.
	firstTouch(s2)
	for _, id := range []uint64{1, 51, 11, 12, 13} {
		gerr := func() error { _, err := s2.Get(id); return err }()
		if !errors.Is(gerr, ErrQuarantined) {
			t.Fatalf("referent %d of rotted extent = %v; want ErrQuarantined", id, gerr)
		}
		var qe *QuarantineError
		if !errors.As(gerr, &qe) || qe.ID != id {
			t.Fatalf("referent %d quarantine error untyped: %v", id, gerr)
		}
	}
	if q := s2.QuarantinedObjects(); len(q) != 5 {
		t.Fatalf("quarantined objects = %v, want the five referents", q)
	}
	// Further aliases of any referent refuse, typed, and leave nothing.
	for _, src := range []uint64{51, 1, 12} {
		if err := alias1(s2, src, 14, rotLabel(1)); !errors.Is(err, ErrQuarantined) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("alias of rotted referent %d = %v", src, err)
		}
	}
	if _, err := s2.Get(14); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("refused alias left a destination behind: %v", err)
	}
	// The undamaged hold keeps aliasing.
	mustAlias(t, s2, 52, 22, rotLabel(2))
	if got, err := s2.Get(22); err != nil || !bytes.Equal(got, aliasPayload(2, 512)) {
		t.Fatalf("alias of the undamaged hold = %d bytes, %v", len(got), err)
	}
	// A rewrite gives one clone fresh private contents and lifts only its
	// quarantine; its siblings stay typed-failed.
	if err := s2.Put(12, []byte("healed by rewrite")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(12); err != nil || string(got) != "healed by rewrite" {
		t.Fatalf("rewritten clone = %q, %v", got, err)
	}
	if _, err := s2.Get(13); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("sibling clone after rewrite = %v", err)
	}
}
