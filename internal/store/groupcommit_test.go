package store

// Group-commit tests: deterministic batching (N concurrent syncs → at most
// ⌈N/batch⌉ write-ahead log commits, proven by wal.Stats counters), batch
// atomicity across crash points between the batch append and the header
// commit, a partially destaged batch on a write-cached disk, and a -race stress
// mix of every store operation.  The hold/release test hook pauses the
// committer so concurrent syncers pile up deterministically instead of
// depending on scheduler timing.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

// launchHeldSyncs starts one SyncObject goroutine per id against a held
// committer and waits until every record is sealed and queued.
func launchHeldSyncs(t *testing.T, s *Store, ids []uint64) (*sync.WaitGroup, []error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id uint64) {
			defer wg.Done()
			errs[i] = s.SyncObject(id)
		}(i, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.groupQueueLen() < len(ids) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d syncs queued", s.groupQueueLen(), len(ids))
		}
		time.Sleep(100 * time.Microsecond)
	}
	return &wg, errs
}

func TestGroupCommitBatchesConcurrentSyncs(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	const batchRecs = 8
	s, err := Format(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.comm.maxRecs = batchRecs
	const n = 32
	payload := bytes.Repeat([]byte("g"), 512)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
		if err := s.Put(ids[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	s.holdGroupCommit()
	wg, errs := launchHeldSyncs(t, s, ids)
	before, loggedBefore := s.WALStats().Commits, s.Stats().BytesLogged
	s.releaseGroupCommit()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	commits := s.WALStats().Commits - before
	if want := uint64((n + batchRecs - 1) / batchRecs); commits == 0 || commits > want {
		t.Errorf("%d concurrent syncs took %d WAL commits, want 1..%d", n, commits, want)
	}
	if got := s.Stats().BytesLogged - loggedBefore; got != uint64(n*len(payload)) {
		t.Errorf("%d bytes logged, want those of %d records", got, n)
	}
	if gs := s.GroupCommitStats(); gs.MaxBatch != batchRecs {
		t.Errorf("group stats = %+v, want batches of ≤%d", gs, batchRecs)
	}
	// The batched commits are real durability: crash and recover everything.
	d.Crash()
	s2, err := Open(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("object %d after crash: %v", id, err)
		}
	}
}

// TestSyncObjectsSingleThreadedBatching is the deterministic ring-batching
// guarantee: SyncObjects enqueues every record before awaiting any ticket,
// so a single caller with no concurrency help gets at most ⌈N/batch⌉ WAL
// commits — the property SyncObject-in-a-loop only approaches under high
// accidental concurrency.
func TestSyncObjectsSingleThreadedBatching(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	const batchRecs = 8
	s, err := Format(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.comm.maxRecs = batchRecs
	const n = 40
	payload := bytes.Repeat([]byte("r"), 256)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
		if err := s.Put(ids[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	// An id with nothing in memory is legal: its on-disk copy is current.
	ids[n-1] = 1 << 40

	before, loggedBefore := s.WALStats(), s.Stats().BytesLogged
	errs := s.SyncObjects(ids)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("SyncObjects[%d] (id %d): %v", i, ids[i], err)
		}
	}
	after := s.WALStats()
	commits := after.Commits - before.Commits
	want := uint64((n + batchRecs - 1) / batchRecs)
	if commits == 0 || commits > want {
		t.Errorf("%d single-threaded grouped syncs took %d WAL commits, want 1..%d", n, commits, want)
	}
	if got := s.Stats().BytesLogged - loggedBefore; got != uint64((n-1)*len(payload)) {
		t.Errorf("%d bytes logged, want those of %d records", got, n-1)
	}
	if gs := s.GroupCommitStats(); gs.MaxBatch != batchRecs {
		t.Errorf("group stats = %+v, want full batches of %d", gs, batchRecs)
	}

	// Contents must actually be durable: recover from the disk image.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(ids[0])
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("object 1 after recovery = (%d bytes, %v)", len(got), err)
	}
}

func TestGroupCommitByteBoundSplitsBatches(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	// Each record is ~2 KB; a 5 KB byte bound admits two records per batch.
	s, err := Format(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.comm.maxBytes = 5 << 10
	payload := bytes.Repeat([]byte("b"), 2048)
	ids := []uint64{1, 2, 3, 4, 5, 6}
	for _, id := range ids {
		if err := s.Put(id, payload); err != nil {
			t.Fatal(err)
		}
	}
	s.holdGroupCommit()
	wg, errs := launchHeldSyncs(t, s, ids)
	s.releaseGroupCommit()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if gs := s.GroupCommitStats(); gs.MaxBatch > 2 {
		t.Errorf("byte bound ignored: max batch %d records (%+v)", gs.MaxBatch, gs)
	}
}

// midBatchRig formats a store on a write-through fault disk with committed
// old states for each id, then buffers new states, ready for a held batch.
func midBatchRig(t *testing.T, ids []uint64, oldData, newData []byte, lbl label.Label) (*Store, *disk.FaultDisk) {
	t.Helper()
	base := disk.New(disk.Params{Sectors: crashSectors, WriteCache: false}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.PutLabeled(id, lbl, oldData, 0, whole); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.PutLabeled(id, lbl, newData, 0, whole); err != nil {
			t.Fatal(err)
		}
	}
	return s, fd
}

// TestGroupCommitCrashMidBatch arms a fault at every write boundary (and
// torn midpoint) of a multi-record batch commit — one frame, one write — and
// checks batch atomicity: recovery sees either every ticket-holder's prior
// committed state or every holder's new state, never a mix, because the
// frame's trailing descriptor is the commit point: a frame torn short of it
// is not part of the log.
func TestGroupCommitCrashMidBatch(t *testing.T) {
	ids := []uint64{3, 9, 17, 25, 33, 41}
	oldData := bytes.Repeat([]byte("o"), 900)
	newData := bytes.Repeat([]byte("n"), 1100)
	lbl := label.New(label.L1, label.P(label.Category(5), label.L3))

	// Fault-free pass: learn the write boundaries of exactly the batch
	// commit (everything after the held queue is released).
	s, fd := midBatchRig(t, ids, oldData, newData, lbl)
	fd.Arm(-1, disk.FaultTorn)
	s.holdGroupCommit()
	wg, errs := launchHeldSyncs(t, s, ids)
	preBounds := fd.WriteBounds() // sealing queues records; no writes yet
	s.releaseGroupCommit()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	bounds := fd.WriteBounds()
	if len(bounds) <= len(preBounds) {
		t.Fatal("batch commit issued no writes")
	}
	start := int64(0)
	if len(preBounds) > 0 {
		start = preBounds[len(preBounds)-1]
	}
	points := crashPoints(bounds[len(preBounds):])

	for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit, disk.FaultFlip} {
		for _, pt := range points {
			if pt < start {
				continue // before the batch: covered by the main harness
			}
			s, fd := midBatchRig(t, ids, oldData, newData, lbl)
			fd.Arm(pt, mode)
			s.holdGroupCommit()
			wg, errs := launchHeldSyncs(t, s, ids)
			s.releaseGroupCommit()
			wg.Wait()
			point := fmt.Sprintf("mid-batch %v@%d", mode, pt)
			crashed := false
			for _, err := range errs {
				if err != nil && !errors.Is(err, disk.ErrFault) {
					t.Fatalf("%s: non-fault sync error: %v", point, err)
				}
				crashed = crashed || err != nil
			}
			s2, err := Open(fd.Inner(), crashOpts)
			if err != nil {
				t.Fatalf("%s: recovery: %v", point, err)
			}
			sawOld, sawNew := false, false
			for _, id := range ids {
				got, err := s2.Get(id)
				if err != nil {
					t.Fatalf("%s: Get(%d): %v", point, id, err)
				}
				switch {
				case bytes.Equal(got, oldData):
					sawOld = true
				case bytes.Equal(got, newData):
					sawNew = true
				default:
					t.Fatalf("%s: object %d recovered %d bytes, neither old nor new", point, id, len(got))
				}
				if l, ok := s2.Label(id); !ok || !l.Equal(lbl) {
					t.Fatalf("%s: object %d label = %v, %v", point, id, l, ok)
				}
			}
			if sawOld && sawNew {
				t.Fatalf("%s: batch atomicity violated: recovered a mix of old and new states", point)
			}
			if !crashed && sawOld {
				t.Fatalf("%s: every sync reported success but old states recovered", point)
			}
		}
	}
}

// TestGroupCommitPartialDestage tears the *destage* of a batch commit: on a
// write-cached disk the commit's flush destages the batch's frame in
// ascending offsets, so power can fail with any whole-sector prefix of it on
// the platter.  A torn, never-acknowledged batch is not damage: recovery
// ends the log before it and reports nothing; every ticket holder — all of
// whom were told the sync failed — must come back in either its prior
// committed state or its sealed new state, and the store must keep working
// (and keep its durability promises) afterwards.
func TestGroupCommitPartialDestage(t *testing.T) {
	ids := []uint64{2, 7, 11, 19}
	oldData := bytes.Repeat([]byte("p"), 700)
	newData := bytes.Repeat([]byte("q"), 800)
	lbl := label.New(label.L1, label.P(label.Category(9), label.L3))
	errDestage := errors.New("power failed mid-destage")

	for budget := int64(0); budget <= 8<<10; budget += disk.SectorSize {
		d := disk.New(disk.Params{Sectors: crashSectors, WriteCache: true}, &vclock.Clock{})
		s, err := Format(d, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := s.PutLabeled(id, lbl, oldData, 0, whole); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := s.PutLabeled(id, lbl, newData, 0, whole); err != nil {
				t.Fatal(err)
			}
		}
		s.holdGroupCommit()
		wg, errs := launchHeldSyncs(t, s, ids)
		d.FailFlushAfter(budget, errDestage)
		s.releaseGroupCommit()
		wg.Wait()
		point := fmt.Sprintf("destage budget %d", budget)
		for i, err := range errs {
			if err == nil {
				t.Fatalf("%s: sync %d reported success across a torn flush", point, i)
			}
			if !errors.Is(err, errDestage) {
				t.Fatalf("%s: sync %d: %v", point, i, err)
			}
		}
		d.Crash() // the rest of the cache dies with the power
		s2, err := Open(d, crashOpts)
		if err != nil {
			t.Fatalf("%s: recovery: %v", point, err)
		}
		if rep, n := s2.RecoveryReport(), s2.Stats().CorruptionsDetected; rep.WALDamaged || n != 0 {
			t.Fatalf("%s: a torn, never-acknowledged batch reported as damage: %+v, %d corruptions", point, rep, n)
		}
		for _, id := range ids {
			got, err := s2.Get(id)
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", point, id, err)
			}
			if !bytes.Equal(got, oldData) && !bytes.Equal(got, newData) {
				t.Fatalf("%s: object %d recovered %d bytes, neither old nor new", point, id, len(got))
			}
			if l, ok := s2.Label(id); !ok || !l.Equal(lbl) {
				t.Fatalf("%s: object %d label = %v, %v", point, id, l, ok)
			}
		}
		// The log ends before the torn frame: the next sync commits over it
		// and survives a clean crash.
		final := bytes.Repeat([]byte("r"), 300)
		if err := s2.Put(ids[0], final); err != nil {
			t.Fatal(err)
		}
		if err := s2.SyncObject(ids[0]); err != nil {
			t.Fatalf("%s: sync after the torn frame: %v", point, err)
		}
		d.Crash()
		s3, err := Open(d, crashOpts)
		if err != nil {
			t.Fatalf("%s: second recovery: %v", point, err)
		}
		if got, err := s3.Get(ids[0]); err != nil || !bytes.Equal(got, final) {
			t.Fatalf("%s: the sync after the torn frame is not durable: %v", point, err)
		}
	}
}

// TestConcurrentStoreStress races every store operation — Put, PutLabeled,
// Get, Delete, SyncObject, label scans, stats, checkpoints — across workers
// with disjoint id ranges, then verifies the final state against each
// worker's sequential expectation, both live and across a reopen.  CI runs
// it under -race.
func TestConcurrentStoreStress(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		span    = 4
		ops     = 120
	)
	type finalState struct {
		exists   bool
		data     []byte
		lbl      label.Label
		hasLabel bool
	}
	finals := make([]map[uint64]finalState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 77))
			final := make(map[uint64]finalState)
			base := uint64(w * span)
			for i := 0; i < ops; i++ {
				id := base + uint64(r.Intn(span))
				switch r.Intn(10) {
				case 0, 1, 2:
					data := randPayload(r)
					if err := s.Put(id, data); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					st := final[id]
					final[id] = finalState{exists: true, data: data, lbl: st.lbl, hasLabel: st.exists && st.hasLabel}
				case 3:
					data, lbl := randPayload(r), randLabel(r)
					if err := s.PutLabeled(id, lbl, data, 0, whole); err != nil {
						t.Errorf("PutLabeled: %v", err)
						return
					}
					final[id] = finalState{exists: true, data: data, lbl: lbl, hasLabel: true}
				case 4:
					if err := s.Delete(id); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
					final[id] = finalState{}
				case 5, 6:
					if st, ok := final[id]; ok && st.exists {
						got, err := s.Get(id)
						if err != nil || !bytes.Equal(got, st.data) {
							t.Errorf("Get(%d) = %d bytes, %v; want %d", id, len(got), err, len(st.data))
							return
						}
					}
				case 7:
					if err := s.SyncObject(id); err != nil {
						t.Errorf("SyncObject: %v", err)
						return
					}
				case 8:
					s.Label(id)
					s.Stats()
				case 9:
					if i%40 == 39 { // occasional whole-system checkpoints
						if err := s.Checkpoint(); err != nil {
							t.Errorf("Checkpoint: %v", err)
							return
						}
					} else if err := s.SyncObject(id); err != nil {
						t.Errorf("SyncObject: %v", err)
						return
					}
				}
			}
			finals[w] = final
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	check := func(get func(uint64) ([]byte, error), lab func(uint64) (label.Label, bool), stage string) {
		for w := 0; w < workers; w++ {
			for id, want := range finals[w] {
				got, err := get(id)
				if !want.exists {
					if !errors.Is(err, ErrNoSuchObject) {
						t.Fatalf("%s: object %d should be gone: %v", stage, id, err)
					}
					continue
				}
				if err != nil || !bytes.Equal(got, want.data) {
					t.Fatalf("%s: object %d = %d bytes, %v; want %d", stage, id, len(got), err, len(want.data))
				}
				l, ok := lab(id)
				if ok != want.hasLabel || (ok && !l.Equal(want.lbl)) {
					t.Fatalf("%s: object %d label = %v, %v; want %v, %v", stage, id, l, ok, want.lbl, want.hasLabel)
				}
			}
		}
	}
	check(s.Get, s.Label, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	check(s2.Get, s2.Label, "reopened")
}

// TestConcurrentSyncsSameObjectNeverRegress hammers a single object with
// concurrent Put+Sync pairs: because records are sealed and enqueued under
// mu, per-object log order equals seal order, so recovery must
// land on a state the object actually passed through — and once any syncer
// has observed a successful commit, at least that state (or newer).
func TestConcurrentSyncsSameObjectNeverRegress(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var (
		mu     sync.Mutex
		states = make(map[string]bool)
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				data := []byte(fmt.Sprintf("writer %d rev %d", w, i))
				mu.Lock()
				states[string(data)] = true
				mu.Unlock()
				if err := s.Put(1, data); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if err := s.SyncObject(1); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !states[string(got)] {
		t.Fatalf("recovered state %q was never written", got)
	}
}

// TestPutLabeledSealsContentsAndLabelAtomically races PutLabeled against
// SyncObject on one object: because contents and label are installed under a
// single entry-lock hold, no sealed record can ever pair the labeled
// contents with a missing or stale label — so after any crash the recovered
// object, whatever revision it landed on, must carry its label.
func TestPutLabeledSealsContentsAndLabelAtomically(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lbl := label.New(label.L1, label.P(label.Category(3), label.L3))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := s.PutLabeled(1, lbl, []byte(fmt.Sprintf("rev %d", i)), 0, whole); err != nil {
				t.Errorf("PutLabeled: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := s.SyncObject(1); err != nil {
				t.Errorf("Sync: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(1); err != nil {
		if errors.Is(err, ErrNoSuchObject) {
			return // no sync committed before the crash: nothing to assert
		}
		t.Fatal(err)
	}
	got, ok := s2.Label(1)
	if !ok || !got.Equal(lbl) {
		t.Fatalf("labeled contents recovered without their label: %v, %v", got, ok)
	}
}

// TestNoStoreAccessWaitsOnAPendingSeal: a checkpoint's seal waits out every
// sync in flight, since a sync holds the gate from seal to commit; while it
// waits, a put, a page-in and a delete still run.  One sync is held in the
// committer, a Checkpoint waits on the gate behind it, and Put, Get and
// Delete must return all the same; then the sync and the checkpoint finish.
func TestNoStoreAccessWaitsOnAPendingSeal(t *testing.T) {
	s, _ := testStore(t)
	for id := uint64(1); id <= 3; id++ {
		if err := s.Put(id, []byte(fmt.Sprintf("object %d", id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("object 1, synced")); err != nil {
		t.Fatal(err)
	}
	s.holdGroupCommit()
	var release sync.Once
	defer release.Do(s.releaseGroupCommit)
	wg, errs := launchHeldSyncs(t, s, []uint64{1})
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint() }()
	deadline := time.Now().Add(10 * time.Second)
	for !sealWaitsOnGate() {
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint never waited on the gate behind the held sync")
		}
		time.Sleep(100 * time.Microsecond)
	}

	withTimeout(t, 2*time.Second, "Put, Get and Delete behind a pending seal", func() {
		if err := s.Put(4, []byte("object 4")); err != nil {
			t.Errorf("Put: %v", err)
		}
		if got, err := s.Get(2); err != nil || string(got) != "object 2" {
			t.Errorf("Get = %q, %v", got, err)
		}
		if err := s.Delete(3); err != nil {
			t.Errorf("Delete: %v", err)
		}
	})

	release.Do(s.releaseGroupCommit)
	wg.Wait()
	if errs[0] != nil {
		t.Errorf("the held sync: %v", errs[0])
	}
	if err := <-ckpt; err != nil {
		t.Errorf("the waiting checkpoint: %v", err)
	}
}

// sealWaitsOnGate reports whether some goroutine is parked in
// checkpointRunLocked on the gate's write lock.
func sealWaitsOnGate() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[sync.RWMutex.Lock") && strings.Contains(g, ").checkpointRunLocked(") {
			return true
		}
	}
	return false
}

// holdGroupCommit pauses the committer so a test can pile up concurrent
// syncers deterministically: subsequent syncs enqueue and block on their
// tickets.  It waits out any active leader first.
func (s *Store) holdGroupCommit() {
	c := &s.comm
	for {
		c.mu.Lock()
		if !c.leaderBusy {
			c.held = true
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		runtime.Gosched()
	}
}

// releaseGroupCommit resumes the committer, draining everything queued while
// it was held on the calling goroutine.
func (s *Store) releaseGroupCommit() {
	c := &s.comm
	c.mu.Lock()
	c.held = false
	if !c.leaderBusy {
		c.leaderBusy = true
		s.drainLocked()
		c.leaderBusy = false
	}
	c.mu.Unlock()
}

// groupQueueLen reports how many sealed records wait for the committer
// (tests poll it while the committer is held).
func (s *Store) groupQueueLen() int {
	c := &s.comm
	c.mu.Lock()
	n := len(c.queue)
	c.mu.Unlock()
	return n
}

// TestFullLogDrainsByRestart: the log is never compacted, only restarted
// when every frame is older than the previous checkpoint, so a log the syncs
// fill drains through checkpoints.  One syncer fsyncs small objects in a loop
// into a 64 KiB log while another goroutine checkpoints every k syncs; the
// syncer waits for that checkpoint's seal, so that no seal falls between a
// put and its sync and a sync's record always reaches the committer, and the
// body runs beside the syncs that follow.  Every sync succeeds.  A sync the
// log refused (ErrFull: its commit count did not rise) forces a checkpoint.
// At most two pass before a sync is logged again, and only after the log
// restarted; a due background checkpoint waits for that, so that it cannot
// be the one that drains the log.  After a crash every acknowledged sync
// reads back.
func TestFullLogDrainsByRestart(t *testing.T) {
	const syncs, k, nObjs = 3000, 500, 8
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sealed atomic.Pointer[chan struct{}] // set while the syncer waits for a seal
	s.ckptGate = func() {
		if ch := sealed.Swap(nil); ch != nil {
			close(*ch)
		}
	}
	tick := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range tick {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("background checkpoint: %v", err)
			}
		}
	}()
	acked := map[uint64]string{}
	refused, drained, due := 0, 0, false
	var reclaims uint64 // the log's restarts before the first refused sync
	for i := 0; i < syncs; i++ {
		id := uint64(i % nObjs)
		val := fmt.Sprintf("object %d, version %06d", id, i)
		if err := s.Put(id, []byte(val)); err != nil {
			t.Fatal(err)
		}
		before := s.WALStats()
		if err := s.SyncObject(id); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		acked[id] = val
		after := s.WALStats()
		switch {
		case after.Commits == before.Commits:
			if refused == 0 {
				reclaims = before.Reclaims
			}
			refused++
		case refused > 0:
			if refused > 2 || after.Reclaims == reclaims {
				t.Fatalf("sync %d logged after %d refused syncs, each forcing a checkpoint, and %d restarts", i, refused, after.Reclaims-reclaims)
			}
			refused, drained = 0, drained+1
		}
		if due = due || i%k == k-1; due && refused == 0 {
			ch := make(chan struct{})
			sealed.Store(&ch)
			tick <- struct{}{}
			<-ch
			due = false
		}
	}
	close(tick)
	wg.Wait()
	if drained == 0 {
		t.Fatalf("the log never refused a sync and drained: %+v", s.WALStats())
	}
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range acked {
		if got, err := s2.Get(id); err != nil || string(got) != want {
			t.Fatalf("object %d after the crash: %q, %v; want %q", id, got, err, want)
		}
	}
}
