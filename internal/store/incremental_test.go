package store

// Directed tests for the incremental checkpoint protocol: syncs and reads
// proceeding while a checkpoint body runs, scrub chunking bounding sync
// latency, no device writes under mu, segment-cleaner behaviour, and
// the crash matrix over a cleaning checkpoint's write schedule.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// withTimeout fails the test if fn does not return within d — the directed
// concurrency tests use it so a reintroduced stall reads as a clear failure
// instead of a package timeout.
func withTimeout(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not complete within %v (checkpoint stall regression)", what, d)
	}
}

// TestSyncAndReadProceedDuringCheckpointBody pins the tentpole property:
// with a checkpoint body paused indefinitely between seal and body (via the
// ckptGate hook), Put, Get, and SyncObject all run to completion — the only
// exclusive moment is the seal.  Under the old stop-the-world protocol
// every one of these would block until the checkpoint finished.
func TestSyncAndReadProceedDuringCheckpointBody(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 1 << 20, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 20; id++ {
		if err := s.Put(id, []byte(fmt.Sprintf("sealed-%d", id))); err != nil {
			t.Fatal(err)
		}
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.ckptGate = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- s.Checkpoint() }()
	<-entered

	// The body is paused; the seal is over.  Everything must proceed.
	withTimeout(t, 30*time.Second, "operations during checkpoint body", func() {
		if err := s.Put(100, []byte("written mid-body")); err != nil {
			t.Errorf("Put during body: %v", err)
		}
		if err := s.SyncObject(100); err != nil {
			t.Errorf("SyncObject during body: %v", err)
		}
		// A sealed object's contents must still be readable (from the
		// pinned in-memory copy — its home extent does not exist yet).
		got, err := s.Get(7)
		if err != nil || string(got) != "sealed-7" {
			t.Errorf("Get of sealed object during body = %q, %v", got, err)
		}
		// Overwriting a sealed object mid-body must not corrupt the sealed
		// snapshot: the seal captured its own alias of the contents.
		if err := s.Put(8, []byte("overwritten mid-body")); err != nil {
			t.Errorf("Put over sealed object: %v", err)
		}
		if _, err := s.Stats(), error(nil); err != nil {
			t.Errorf("Stats during body: %v", err)
		}
	})

	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Remount: the snapshot plus the post-seal log records must reproduce
	// everything, including the mid-body sync and overwrite.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]string{7: "sealed-7", 8: "overwritten mid-body", 100: "written mid-body"} {
		got, err := s2.Get(id)
		if err != nil || string(got) != want {
			t.Errorf("after remount, object %d = %q, %v; want %q", id, got, err, want)
		}
	}
}

// TestCheckpointFullLogStaysConcurrent: a checkpoint over a log with no room
// for one more frame — every byte of it records from the current generation,
// so no reclaim could help — runs like any other.  Its seal writes nothing;
// with the body held at ckptGate a Get and a SyncObject complete, a sync that
// needs the log waits for a checkpoint and is acknowledged, the checkpoint
// commits, and every acknowledged sync reads back after a crash.  A store
// whose seal appends to the log finds no room there and runs the body
// stop-the-world, under the exclusive lock a Get waits on.
func TestCheckpointFullLogStaysConcurrent(t *testing.T) {
	const logSize = 64 << 10
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	opts := Options{LogSize: logSize, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Object 0 is checkpointed home and evicted: syncing it needs no record.
	if err := s.Put(0, []byte("at home")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.EvictCache()
	want := map[uint64][]byte{0: []byte("at home")}
	id := uint64(1)
	sync1 := func(n int64) {
		t.Helper()
		data := bytes.Repeat([]byte{byte(id)}, int(n))
		if err := s.Put(id, data); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			t.Fatal(err)
		}
		want[id] = data
		id++
	}
	room := func() int64 { return logSize - 32 - s.l.LiveBytes() }
	// One small record measures a frame's overhead (record header included);
	// the last record leaves one byte less than the smallest frame needs.
	before := room()
	sync1(100)
	overhead := before - room() - 100
	for room() > 2*(overhead+4096) {
		sync1(4096)
	}
	sync1(room() - overhead - (overhead - 1))
	if r := room(); r >= overhead {
		t.Fatalf("log left with %d bytes of room; a frame needs %d", r, overhead)
	}
	if n := s.Stats().Checkpoints; n != 1 {
		t.Fatalf("filling the log took %d checkpoints, want only the first", n)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var atGate disk.Stats
	var once sync.Once
	s.ckptGate = func() {
		once.Do(func() {
			atGate = d.Stats()
			close(entered)
			<-release
		})
	}
	sealStart := d.Stats()
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- s.Checkpoint() }()
	select {
	case <-entered:
	case err := <-ckptDone:
		t.Fatalf("the checkpoint ended (%v) without reaching its body's gate: it ran stop-the-world", err)
	case <-time.After(30 * time.Second):
		t.Fatal("the checkpoint never reached its body")
	}
	if w, f := atGate.Writes-sealStart.Writes, atGate.Flushes-sealStart.Flushes; w != 0 || f != 0 {
		t.Errorf("the seal issued %d device writes and %d flushes, want none", w, f)
	}
	withTimeout(t, 30*time.Second, "Get and SyncObject during the body", func() {
		if got, err := s.Get(1); err != nil || !bytes.Equal(got, want[1]) {
			t.Errorf("Get of a sealed object during the body = %d bytes, %v", len(got), err)
		}
		if err := s.SyncObject(0); err != nil {
			t.Errorf("SyncObject of a checkpointed object during the body: %v", err)
		}
	})
	// A record the full log cannot take: the sync waits for a checkpoint
	// sealed after it, which needs the held body to finish first.
	late := bytes.Repeat([]byte("late"), 100)
	if err := s.Put(2, late); err != nil {
		t.Fatal(err)
	}
	want[2] = late
	lateDone := make(chan error, 1)
	go func() { lateDone <- s.SyncObject(2) }()
	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint over a full log: %v", err)
	}
	if err := <-lateDone; err != nil {
		t.Fatalf("sync after the full log: %v", err)
	}
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range want {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, data) {
			t.Errorf("after the crash, object %d = %d bytes, %v; want the %d acknowledged", id, len(got), err, len(data))
		}
	}
}

// pausedScrub starts a Scrub that pauses before the first object of its walk
// (the scrubGate hook, which runs with no locks held) and returns once it
// has; resume lets it go on and returns its result.
func pausedScrub(t *testing.T, s *Store) (resume func() (ScrubStats, error)) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.scrubGate = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	type result struct {
		st  ScrubStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := s.Scrub()
		done <- result{st, err}
	}()
	<-entered
	return func() (ScrubStats, error) {
		close(release)
		r := <-done
		return r.st, r.err
	}
}

// TestScrubPausedMidWalk: a scrub paused in its object walk holds up no
// other operation.  A full Checkpoint and a SyncObject both complete
// meanwhile, and the walk then resumes over relocated extents without
// quarantining anything.  A Close that overtakes the paused walk stops it:
// the scrub returns ErrClosed with what it verified before, reads no object
// after, and passes no quarantine verdict on the closed store, even on an
// extent that rotted.
func TestScrubPausedMidWalk(t *testing.T) {
	base := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: 1 << 20, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const nObjs = 200
	for id := uint64(0); id < nObjs; id++ {
		if err := s.Put(id, []byte(fmt.Sprintf("scrub-object-%d", id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty a swath so the mid-scrub checkpoint genuinely relocates extents
	// the scrub already captured as targets.
	for id := uint64(0); id < nObjs; id += 2 {
		if err := s.Put(id, []byte(fmt.Sprintf("scrub-object-%d-v2", id))); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("checkpoint and sync finish", func(t *testing.T) {
		resume := pausedScrub(t, s)
		withTimeout(t, 30*time.Second, "checkpoint+sync during paused scrub", func() {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint during scrub: %v", err)
			}
			if err := s.Put(5000, []byte("synced during scrub")); err != nil {
				t.Errorf("put during scrub: %v", err)
			}
			if err := s.SyncObject(5000); err != nil {
				t.Errorf("sync during scrub: %v", err)
			}
		})
		// The checkpoint relocated half the targets out from under the
		// scrub; re-validation against the live object map must classify
		// those as stale, never as damage.
		if st, err := resume(); err != nil || st.ObjectsQuarantined != 0 || st.CorruptionsFound != 0 {
			t.Fatalf("scrub over concurrent checkpoint reported damage: %+v, %v", st, err)
		}
		if len(s.QuarantinedObjects()) != 0 {
			t.Fatalf("objects quarantined: %v", s.QuarantinedObjects())
		}
	})

	t.Run("a close overtakes it", func(t *testing.T) {
		captured := map[uint64]home{}
		for id := uint64(0); id < nObjs; id++ {
			captured[id], _ = lockedHome(s, id)
		}
		resume := pausedScrub(t, s)
		withTimeout(t, 30*time.Second, "close during paused scrub", func() {
			if err := s.Close(); err != nil {
				t.Errorf("close during scrub: %v", err)
			}
		})
		// Rot an extent the walk has yet to read and the close's checkpoint
		// left where the scrub captured it.
		victim := uint64(nObjs)
		for id := uint64(0); id < nObjs && victim == nObjs; id++ {
			if h, ok := lockedHome(s, id); ok && h == captured[id] {
				victim = id
			}
		}
		if victim == nObjs {
			t.Fatal("the close's checkpoint moved every captured object")
		}
		if err := fd.RotBits(homeRegion(s, victim), 1, 7); err != nil {
			t.Fatal(err)
		}
		st, err := resume()
		if !errors.Is(err, ErrClosed) || st.ObjectsChecked >= nObjs {
			t.Fatalf("a scrub overtaken by Close: %+v, %v; want ErrClosed and the walk stopped", st, err)
		}
		if st.ObjectsQuarantined != 0 || s.Stats().QuarantineEvents != 0 {
			t.Fatalf("a scrub overtaken by Close passed a verdict: %+v, %d quarantine events", st, s.Stats().QuarantineEvents)
		}
		// The rot is real: a scrub of the store reopened finds it.
		s2, err := Open(fd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s2.Scrub(); err != nil || st.ObjectsQuarantined != 1 {
			t.Fatalf("scrub after reopening: %+v, %v; want the victim quarantined", st, err)
		}
	})
}

// TestScrubBesideCheckpoints: writers put and checkpoint in a loop while a
// scrubber loops Scrub.  Every pass must find both bases it checks whole and
// nothing corrupt: its superblock and metadata phase holds ckptRun, so no
// checkpoint writes a base or flips the superblock under it, and it reads the
// committed base extents and epoch of the bytes it verifies.
func TestScrubBesideCheckpoints(t *testing.T) {
	const writers, rounds, perRound = 2, 100, 20
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 1 << 20, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	scrubbed := make(chan int)
	go func() {
		passes := 0
		defer func() { scrubbed <- passes }()
		for {
			select {
			case <-done:
				return
			default:
			}
			st, err := s.Scrub()
			if err != nil {
				t.Errorf("scrub %d: %v", passes, err)
				return
			}
			if st.BasesOK != st.BasesChecked || st.CorruptionsFound != 0 {
				t.Errorf("scrub %d beside checkpoints: %d of %d bases whole, %d corruptions", passes, st.BasesOK, st.BasesChecked, st.CorruptionsFound)
				return
			}
			passes++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					id := uint64(w)<<32 | uint64(r*perRound+i)
					if err := s.Put(id, []byte(fmt.Sprintf("writer %d round %d", w, r))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.Checkpoint(); err != nil {
					t.Errorf("writer %d round %d: checkpoint: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if passes := <-scrubbed; passes == 0 && !t.Failed() {
		t.Error("no scrub pass ran beside the checkpoints")
	}
}

// lockCheckDevice wraps a Device and runs check before every WriteAt and
// Flush.
type lockCheckDevice struct {
	disk.Device
	check func(off int64)
}

func (d *lockCheckDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.check != nil {
		d.check(off)
	}
	return d.Device.WriteAt(p, off)
}

func (d *lockCheckDevice) Flush() error {
	if d.check != nil {
		d.check(-1)
	}
	return d.Device.Flush()
}

// TestNoDeviceWriteUnderMu pins the one rule the store's mu has: no device
// write or flush is issued while it is held — not by a checkpoint (run
// header, segment appends, the cleaner, delta, base, superblock), a
// SyncObjects group commit, or a Scrub — so no operation waits
// behind disk I/O for the lock every operation takes.  The test is
// single-threaded, so a failed TryLock during a write can only mean the
// writing goroutine itself holds mu.
func TestNoDeviceWriteUnderMu(t *testing.T) {
	base := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	ld := &lockCheckDevice{Device: base}
	s, err := Format(ld, Options{LogSize: 1 << 20, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var violations []int64
	ld.check = func(off int64) {
		if s.mu.TryLock() {
			s.mu.Unlock()
		} else {
			violations = append(violations, off)
		}
	}
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(violations) != 0 {
			t.Fatalf("%s: %d device writes issued while holding mu (offsets %v; -1 is a flush)", name, len(violations), violations)
		}
	}
	ids := make([]uint64, 0, 60)
	for id := uint64(0); id < 60; id++ {
		step("put", s.Put(id, bytes.Repeat([]byte{byte(id)}, 700)))
		ids = append(ids, id)
	}
	step("group commit", errors.Join(s.SyncObjects(ids)...))
	step("checkpoint", s.Checkpoint())
	// Second round: deletions leave the first segment three-quarters dead,
	// under the cleaner's low mark of a third live, and new objects roll it
	// over, so the checkpoints also exercise the dead-entry path and the
	// cleaner; a large object takes a segment of its own.
	for id := uint64(0); id < 60; id++ {
		if id%4 != 1 {
			step("delete", s.Delete(id))
		}
	}
	for id := uint64(100); id < 120; id++ {
		step("put", s.Put(id, bytes.Repeat([]byte{byte(id)}, 900)))
	}
	step("put", s.Put(200, make([]byte, 40<<10)))
	step("checkpoint", s.Checkpoint())
	// The first segment holds the first checkpoint's delta, which pins it
	// until two new bases have been written: checkpoints with nothing to
	// seal grow the chain until they do, and the cleaner takes the segment.
	for i := 0; i < 3*maxChainLinks && s.Stats().SegsCleaned == 0; i++ {
		step("checkpoint", s.Checkpoint())
	}
	_, err = s.Scrub()
	step("scrub", err)
	if s.Stats().SegsCleaned == 0 {
		t.Fatal("the cleaner never ran: the test no longer covers it")
	}
}

// cleanerPayload is a deterministic ~3 KB object body (big enough that a
// few dozen objects span multiple 64 KB segments, small enough for the
// shared segments rather than one of its own).
func cleanerPayload(id uint64) []byte {
	b := make([]byte, 3000)
	for i := range b {
		b[i] = byte(id) + byte(i%251)
	}
	return b
}

// cleanerWorkload fills segments with synced objects, checkpoints them
// home, deletes three in four, and checkpoints again — driving the second
// checkpoint's body through dead-segment frees and live-object copy-outs,
// since the full segment is left below the cleaner's low mark of a third
// live (two in three deleted would leave it exactly a third) — then dirties
// the survivors for one more round.
func cleanerWorkload() []wlOp {
	var ops []wlOp
	for id := uint64(0); id < 24; id++ {
		ops = append(ops, wlOp{kind: opPut, id: id, data: cleanerPayload(id)})
		ops = append(ops, wlOp{kind: opSync, id: id})
	}
	ops = append(ops, wlOp{kind: opCheckpoint})
	for id := uint64(0); id < 24; id++ {
		if id%4 != 0 {
			ops = append(ops, wlOp{kind: opDelete, id: id})
		}
	}
	ops = append(ops, wlOp{kind: opCheckpoint})
	for id := uint64(0); id < 24; id += 4 {
		ops = append(ops, wlOp{kind: opPut, id: id, data: cleanerPayload(id + 100)})
		ops = append(ops, wlOp{kind: opSync, id: id})
	}
	ops = append(ops, wlOp{kind: opCheckpoint})
	return ops
}

// TestSegmentCleanerReclaimsAndPreservesData checks the cleaner end to end
// on a healthy disk: the workload's deletions make it free and clean
// segments, the survivors' contents stay exact across a remount, and the
// vacated space returns to the free list.
func TestSegmentCleanerReclaimsAndPreservesData(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 1 << 20, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m := newRefModel()
	if runWorkload(t, s, cleanerWorkload(), m) {
		t.Fatal("workload crashed with no fault armed")
	}
	if st := s.Stats(); st.SegsCleaned == 0 {
		t.Fatalf("cleaner never reclaimed a segment: %+v", st)
	}
	free := s.FreeBytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, Options{SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 24; id += 4 {
		got, err := s2.Get(id)
		if err != nil || !bytes.Equal(got, cleanerPayload(id+100)) {
			t.Fatalf("survivor %d after remount: len=%d err=%v", id, len(got), err)
		}
	}
	if got := s2.FreeBytes(); got < free {
		t.Fatalf("free space shrank across remount: %d -> %d", free, got)
	}
}

// TestCrashMidSegmentCleanEveryPoint extends the crash matrix to the
// cleaner's write schedule (satellite 4): the scripted workload makes the
// second checkpoint free dead segments and copy live objects between
// segments, and crashMatrix injects a fault at each write boundary of that
// schedule — including inside the copy-out writes and the section rewrites
// that follow — with recovery verified against the reference model every
// time.
func TestCrashMidSegmentCleanEveryPoint(t *testing.T) {
	ops := append(cleanerWorkload(), chainToBase(rand.New(rand.NewSource(77)), 24)...)
	s, _ := newCrashRig(t)
	if runWorkload(t, s, ops, newRefModel()) {
		t.Fatal("workload crashed with no fault armed")
	}
	if st := s.Stats(); st.SegsCleaned == 0 {
		t.Fatalf("workload did not exercise the segment cleaner: %+v", st)
	}
	stride := 1
	if testing.Short() {
		stride = 3 // every third point still covers each phase of the schedule
	}
	crashMatrix(t, "cleaner", ops, 77_000_000, stride, continueAfterRecovery)
}
