package store

// Crash-injection recovery harness: a randomized workload of Put /
// PutLabeled / Delete / SyncObject / Alias / Checkpoint runs on a write-through
// disk wrapped in a disk.FaultDisk, which kills the device at an injected
// crash point (a byte offset into the write stream, torn or omitted at
// sector granularity).  The surviving image is then reopened and checked
// against a reference model:
//
//   - every state committed before the crash (by a successful SyncObject or
//     Checkpoint) must come back exactly — contents, label, fingerprint,
//     and fingerprint-index membership;
//   - any newer state observed instead must be one the object actually
//     passed through (a later commit may have become durable even though
//     the crash made its success unreportable);
//   - the fingerprint index must mirror the recovered label map.
//
// Crash points are derived from a fault-free pass that records the
// cumulative byte offset of every completed device write; the workload is
// then replayed with the fault armed at every write boundary (and torn
// mid-write for multi-sector writes).  Each replay re-derives its own
// commit log, so the harness does not depend on replays being byte-for-byte
// identical.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

type opKind int

const (
	opPut opKind = iota
	opPutLabeled
	opDelete
	opSync
	opAlias
	opCheckpoint
	numOpKinds
)

type wlOp struct {
	kind opKind
	id   uint64
	src  uint64 // opAlias: the object id becomes an alias of
	data []byte
	lbl  label.Label
}

// objState is one full state an object passed through: contents plus label.
type objState struct {
	exists   bool
	data     []byte
	lbl      label.Label
	hasLabel bool
}

func (a objState) equal(b objState) bool {
	if a.exists != b.exists {
		return false
	}
	if !a.exists {
		return true
	}
	return bytes.Equal(a.data, b.data) && a.hasLabel == b.hasLabel &&
		(!a.hasLabel || a.lbl.Equal(b.lbl))
}

// refModel tracks, per object, every state it passed through and the index
// of the last state known committed.
type refModel struct {
	history    map[uint64][]objState
	durableIdx map[uint64]int
}

func newRefModel() *refModel {
	return &refModel{history: make(map[uint64][]objState), durableIdx: make(map[uint64]int)}
}

func (m *refModel) hist(id uint64) []objState {
	if _, ok := m.history[id]; !ok {
		m.history[id] = []objState{{exists: false}} // state 0: never existed
	}
	return m.history[id]
}

func (m *refModel) push(id uint64, st objState) {
	m.history[id] = append(m.hist(id), st)
}

func (m *refModel) latest(id uint64) objState {
	h := m.hist(id)
	return h[len(h)-1]
}

// commit marks id's latest state durable.
func (m *refModel) commit(id uint64) {
	m.durableIdx[id] = len(m.hist(id)) - 1
}

// commitAll marks every object's latest state durable (a checkpoint).
func (m *refModel) commitAll() {
	for id := range m.history {
		m.commit(id)
	}
}

// genWorkload builds a deterministic randomized op sequence over a small id
// space with labels drawn from a small category pool, so syncs, deletes,
// checkpoints and label changes interleave densely.
func genWorkload(r *rand.Rand, n int) []wlOp {
	return genWorkloadIn(r, n, 0, 12)
}

// genWorkloadIn is genWorkload over the id range [base, base+span); the
// concurrent harness gives each worker a disjoint range so every object has
// exactly one writer and its reference history stays exact.
func genWorkloadIn(r *rand.Rand, n int, base uint64, span int) []wlOp {
	// A crude picture of each id as the ops will leave it, so that most alias
	// ops name a source the store takes (checkpointed since its last Put) and
	// a destination it can (absent, any deletion checkpointed).  Another
	// worker's checkpoint only makes the picture pessimistic.
	type picture struct{ exists, dirty, home bool }
	pic := make([]picture, span)
	pick := func(ok func(picture) bool) uint64 {
		var fit []int
		for i, p := range pic {
			if ok(p) {
				fit = append(fit, i)
			}
		}
		if len(fit) == 0 {
			return base + uint64(r.Intn(span)) // let the store refuse it
		}
		return base + uint64(fit[r.Intn(len(fit))])
	}
	var ops []wlOp
	for i := 0; i < n; i++ {
		id := base + uint64(r.Intn(span))
		p := &pic[id-base]
		switch k := opKind(r.Intn(int(numOpKinds))); k {
		case opPut:
			ops = append(ops, wlOp{kind: opPut, id: id, data: randPayload(r)})
			p.exists, p.dirty = true, true
		case opPutLabeled:
			ops = append(ops, wlOp{kind: opPutLabeled, id: id, data: randPayload(r), lbl: randLabel(r)})
			p.exists, p.dirty = true, true
		case opDelete:
			ops = append(ops, wlOp{kind: opDelete, id: id})
			p.exists, p.dirty = false, false
		case opSync:
			ops = append(ops, wlOp{kind: opSync, id: id})
		case opAlias:
			// Source and destination in the same range: the destination is
			// then rewritten, synced and deleted like any other object, and
			// aliased again — of an alias, often enough.
			src := pick(func(p picture) bool { return p.exists && !p.dirty && p.home })
			dst := pick(func(p picture) bool { return !p.exists && !p.home })
			ops = append(ops, wlOp{kind: opAlias, id: dst, src: src, lbl: randLabel(r)})
			if s, d := pic[src-base], &pic[dst-base]; s.exists && !s.dirty && s.home && !d.exists && !d.home {
				*d = s
			}
		case opCheckpoint:
			ops = append(ops, wlOp{kind: opCheckpoint})
			for i := range pic {
				pic[i].dirty, pic[i].home = false, pic[i].exists
			}
		}
	}
	return ops
}

// applyAlias runs one opAlias and keeps m in step.  Whether the store takes
// it depends on state the model does not track (is the source clean, has the
// destination's deletion been checkpointed), so the store's typed refusals
// are results, not failures: they change nothing.  An alias it does take is
// of the source's latest state — a clean source has no other — and is
// committed on return; one the fault interrupted may have reached the log all
// the same (a torn frame whose payload landed whole replays), so it is a
// state the destination may be found in, not one it must.
func applyAlias(s *Store, op wlOp, m *refModel) error {
	err := s.Alias(op.src, op.id, op.lbl)
	switch {
	case errors.Is(err, ErrNotCommitted), errors.Is(err, ErrNoSuchObject), errors.Is(err, ErrCloneExists):
		return nil
	case err == nil, errors.Is(err, disk.ErrFault):
		m.push(op.id, objState{exists: true, data: m.latest(op.src).data, lbl: op.lbl, hasLabel: true})
		if err == nil {
			m.commit(op.id)
		}
	}
	return err
}

func randPayload(r *rand.Rand) []byte {
	n := r.Intn(1500) + 1
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

func randLabel(r *rand.Rand) label.Label {
	n := r.Intn(3) + 1
	pairs := make([]label.Pair, 0, n)
	for i := 0; i < n; i++ {
		lv := []label.Level{label.L0, label.L2, label.L3}[r.Intn(3)]
		pairs = append(pairs, label.P(label.Category(r.Intn(6)+1), lv))
	}
	return label.New(label.L1, pairs...)
}

const (
	crashLogSize  = 96 << 10
	crashMetaSize = 192 << 10
	crashSectors  = 1 << 14 // 8 MB write-through disk
)

// crashOpts shrinks every region so the randomized workloads exercise log
// reclamation, checkpoint fallbacks, and the segment cleaner: the 64 KB
// segments fill and turn over within a handful of checkpoints.
var crashOpts = Options{LogSize: crashLogSize, MetaAreaSize: crashMetaSize, SegmentSize: 64 << 10}

// newCrashRig formats a store on a write-through disk behind a FaultDisk.
// The fault is armed only after Format, so crash points cover the workload.
func newCrashRig(t *testing.T) (*Store, *disk.FaultDisk) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: crashSectors, WriteCache: false}, &vclock.Clock{})
	fd := disk.NewFaultDisk(d)
	s, err := Format(fd, crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	return s, fd
}

// runWorkload applies ops to s, maintaining the reference model, until the
// injected fault fires (or the ops run out).  It reports whether the run
// crashed.
func runWorkload(t *testing.T, s *Store, ops []wlOp, m *refModel) bool {
	t.Helper()
	faulted := func(err error) bool {
		if err == nil {
			return false
		}
		if errors.Is(err, disk.ErrFault) {
			return true
		}
		t.Fatalf("workload op failed with non-fault error: %v", err)
		return true
	}
	for _, op := range ops {
		switch op.kind {
		case opPut:
			if faulted(s.Put(op.id, op.data)) {
				return true
			}
			prev := m.latest(op.id)
			m.push(op.id, objState{exists: true, data: op.data, lbl: prev.lbl, hasLabel: prev.exists && prev.hasLabel})
		case opPutLabeled:
			if faulted(s.PutLabeled(op.id, op.lbl, op.data)) {
				return true
			}
			m.push(op.id, objState{exists: true, data: op.data, lbl: op.lbl, hasLabel: true})
		case opDelete:
			if faulted(s.Delete(op.id)) {
				return true
			}
			m.push(op.id, objState{exists: false})
		case opSync:
			// Record the seal sequence under ckptMu the way SyncObject itself
			// does: with incremental checkpoints, "a checkpoint completed
			// during my sync" is not enough to mark everything durable (the
			// completing body may belong to a seal from before this worker's
			// recent Puts).  Only a checkpoint SEALED strictly after this
			// point — observed as completedSeal moving past q — captured
			// every state pushed so far.
			s.ckptMu.RLock()
			q := s.sealSeq.Load()
			s.ckptMu.RUnlock()
			if faulted(s.SyncObject(op.id)) {
				return true
			}
			if s.completedSeal.Load() > q {
				// The log filled and SyncObject checkpointed everything.
				m.commitAll()
			}
			m.commit(op.id)
		case opAlias:
			if faulted(applyAlias(s, op, m)) {
				return true
			}
		case opCheckpoint:
			if faulted(s.Checkpoint()) {
				return true
			}
			m.commitAll()
		}
	}
	return false
}

// verifyRecovery reopens the (possibly crash-torn) image and checks it
// against the model.  It returns the recovered store with the model reset to
// the observed (now authoritative) state, so the caller can keep operating
// on it — recovery bugs that leave latent bad in-memory state only fire on
// the operations after a reboot.
func verifyRecovery(t *testing.T, dev disk.Device, m *refModel, point string) *Store {
	t.Helper()
	s, err := Open(dev, crashOpts)
	if err != nil {
		t.Fatalf("%s: recovery failed to open the store: %v", point, err)
	}
	for id := range m.history {
		var got objState
		data, err := s.Get(id)
		switch {
		case errors.Is(err, ErrNoSuchObject):
			got = objState{exists: false}
		case err != nil:
			t.Fatalf("%s: Get(%d): %v", point, id, err)
		default:
			got = objState{exists: true, data: data}
			got.lbl, got.hasLabel = s.Label(id)
		}
		h := m.hist(id)
		lo := m.durableIdx[id]
		matched := -1
		for j := lo; j < len(h); j++ {
			if h[j].equal(got) {
				matched = j
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: object %d recovered in a state it never committed:\n  got  exists=%v len=%d hasLabel=%v lbl=%v\n  want one of states %d..%d (durable: exists=%v len=%d hasLabel=%v lbl=%v)",
				point, id, got.exists, len(got.data), got.hasLabel, got.lbl,
				lo, len(h)-1, h[lo].exists, len(h[lo].data), h[lo].hasLabel, h[lo].lbl)
			continue
		}
		// The recovered state is the new baseline for this object.
		m.history[id] = []objState{h[matched]}
		m.durableIdx[id] = 0
		// Committed labels must come back with identical fingerprints.
		if got.exists && got.hasLabel && got.lbl.Fingerprint() != h[matched].lbl.Fingerprint() {
			t.Errorf("%s: object %d label fingerprint mismatch after recovery", point, id)
		}
	}
	return s
}

// continueAfterRecovery keeps operating on a recovered store — more random
// ops ending in a crash (reopen with no checkpoint) — to flush out recovery
// bugs whose damage is latent in the replayed in-memory state and would be
// healed by a graceful close (e.g. a stale tombstone flag that only
// corrupts the NEXT sync).
func continueAfterRecovery(t *testing.T, s *Store, m *refModel, contSeed int64, point string) {
	t.Helper()
	cont := genWorkload(rand.New(rand.NewSource(contSeed)), 15)
	// Make sure at least one sync of a replayed object happens, whatever
	// the random mix says: syncs are where stale replay state does damage.
	for id := range m.history {
		cont = append(cont, wlOp{kind: opSync, id: id})
	}
	if runWorkload(t, s, cont, m) {
		t.Fatalf("%s: continuation crashed with no fault armed", point)
	}
}

// crashPoints derives the set of byte offsets to inject faults at from the
// write boundaries of a fault-free run: every boundary (the next write dies
// whole) plus a torn midpoint inside every multi-sector write.
func crashPoints(bounds []int64) []int64 {
	points := []int64{0}
	prev := int64(0)
	for _, b := range bounds {
		if mid := prev + (b-prev)/2; mid > prev && mid < b && b-prev > disk.SectorSize {
			points = append(points, mid)
		}
		points = append(points, b)
		prev = b
	}
	// Dedup (adjacent points can collide after the midpoint rounding).
	out := points[:0]
	var last int64 = -1
	for _, p := range points {
		if p != last {
			out = append(out, p)
		}
		last = p
	}
	return out
}

// runWorkloadConcurrent runs one op stream per worker against s, each worker
// maintaining its own reference model over its disjoint id range.  The
// soundness argument under concurrency: every state a worker's object passes
// through is pushed to that worker's history before the worker's next op, so
// the histories stay complete; durability marks are conservative (a worker
// marks only its own objects durable, on its own successful syncs and
// checkpoints — another worker's checkpoint making its objects durable early
// just widens the window verifyRecovery accepts).  It reports whether the
// armed fault stopped any worker; any non-fault failure fails the test.
func runWorkloadConcurrent(t *testing.T, s *Store, workers [][]wlOp, models []*refModel) bool {
	t.Helper()
	var (
		wg      sync.WaitGroup
		crashed atomic.Bool
		errMu   sync.Mutex
		badErr  error
	)
	for w := range workers {
		wg.Add(1)
		go func(ops []wlOp, m *refModel) {
			defer wg.Done()
			for _, op := range ops {
				var err error
				switch op.kind {
				case opPut:
					if err = s.Put(op.id, op.data); err == nil {
						prev := m.latest(op.id)
						m.push(op.id, objState{exists: true, data: op.data, lbl: prev.lbl, hasLabel: prev.exists && prev.hasLabel})
					}
				case opPutLabeled:
					if err = s.PutLabeled(op.id, op.lbl, op.data); err == nil {
						m.push(op.id, objState{exists: true, data: op.data, lbl: op.lbl, hasLabel: true})
					}
				case opDelete:
					if err = s.Delete(op.id); err == nil {
						m.push(op.id, objState{exists: false})
					}
				case opSync:
					if err = s.SyncObject(op.id); err == nil {
						m.commit(op.id)
					}
				case opAlias:
					err = applyAlias(s, op, m)
				case opCheckpoint:
					// A successful checkpoint made at least this worker's own
					// latest states durable (its ops are sequential, so none
					// were in flight); other workers' objects are left to
					// their own conservative marks.
					if err = s.Checkpoint(); err == nil {
						m.commitAll()
					}
				}
				if err != nil {
					if !errors.Is(err, disk.ErrFault) {
						errMu.Lock()
						if badErr == nil {
							badErr = fmt.Errorf("op on object %d: %w", op.id, err)
						}
						errMu.Unlock()
					}
					crashed.Store(true)
					return
				}
			}
		}(workers[w], models[w])
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if badErr != nil {
		t.Fatalf("concurrent workload failed with non-fault error: %v", badErr)
	}
	return crashed.Load()
}

// mergeModels folds per-worker models (over disjoint ids) into one for
// verification.
func mergeModels(models []*refModel) *refModel {
	out := newRefModel()
	for _, m := range models {
		for id, h := range m.history {
			out.history[id] = h
			out.durableIdx[id] = m.durableIdx[id]
		}
	}
	return out
}

const (
	concWorkers = 4
	concIDSpan  = 6
	concOps     = 14
)

func concWorkloads(seed int64) [][]wlOp {
	workers := make([][]wlOp, concWorkers)
	for w := range workers {
		r := rand.New(rand.NewSource(seed*1000 + int64(w)))
		workers[w] = genWorkloadIn(r, concOps, uint64(w*concIDSpan), concIDSpan)
	}
	return workers
}

func freshModels() []*refModel {
	models := make([]*refModel, concWorkers)
	for w := range models {
		models[w] = newRefModel()
	}
	return models
}

// TestCrashRecoveryConcurrentEveryPoint replays a *concurrent* randomized
// workload — group-committing syncers, checkpoints, deletes and label
// changes racing across four workers — with a fault injected at every write
// boundary the fault-free pass recorded (plus torn midpoints), and verifies
// recovery against the merged reference models each time.  Crash points
// inside a batch commit land between the log body write and the header
// update, so the mid-batch cases are covered by construction.
func TestCrashRecoveryConcurrentEveryPoint(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		workers := concWorkloads(seed)

		// Fault-free pass: learn a write-boundary set (replays reproduce
		// their own interleavings; the points just have to land inside the
		// write stream, which these do).
		s, fd := newCrashRig(t)
		fd.Arm(-1, disk.FaultTorn)
		models := freshModels()
		if runWorkloadConcurrent(t, s, workers, models) {
			t.Fatal("fault-free concurrent pass crashed")
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		merged := mergeModels(models)
		merged.commitAll()
		verifyRecovery(t, fd.Inner(), merged, fmt.Sprintf("conc seed %d clean", seed))
		points := crashPoints(fd.WriteBounds())

		for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit, disk.FaultFlip} {
			for _, pt := range points {
				s, fd := newCrashRig(t)
				// Flip damage is seeded so a failure reproduces exactly; the
				// seed is part of the point string a failing run prints.
				flipSeed := seed*1_000_000 + pt
				if mode == disk.FaultFlip {
					fd.SetFlipSeed(flipSeed)
				}
				fd.Arm(pt, mode)
				models := freshModels()
				crashed := runWorkloadConcurrent(t, s, workers, models)
				if !crashed && fd.Tripped() {
					t.Fatalf("conc seed %d %v@%d: fault tripped but no op reported it", seed, mode, pt)
				}
				point := fmt.Sprintf("conc seed %d %v@%d", seed, mode, pt)
				if mode == disk.FaultFlip {
					point = fmt.Sprintf("%s flipseed=%d", point, flipSeed)
				}
				m := mergeModels(models)
				rec := verifyRecovery(t, fd.Inner(), m, point)
				if t.Failed() {
					return // one failing crash point is enough detail
				}
				// Life goes on after the reboot (single-threaded: the replay
				// bugs this flushes out are about recovered state, not
				// concurrency).
				continueAfterRecovery(t, rec, m, seed*1_000_000+pt, point)
				verifyRecovery(t, fd.Inner(), m, point+" post-continuation")
				if t.Failed() {
					return
				}
			}
		}
	}
}

// TestCrashRecoveryEveryPoint is the main harness entry: for several
// workload seeds and both straddle modes, replay the workload with a fault
// injected at every crash point and verify recovery each time.
func TestCrashRecoveryEveryPoint(t *testing.T) {
	seeds := []int64{1, 2, 3}
	opsPerSeed := 90
	if testing.Short() {
		seeds = seeds[:1]
		opsPerSeed = 50
	}
	for _, seed := range seeds {
		ops := genWorkload(rand.New(rand.NewSource(seed)), opsPerSeed)

		// Fault-free pass: learn the write boundaries (and make sure the
		// workload itself is clean end to end).
		s, fd := newCrashRig(t)
		fd.Arm(-1, disk.FaultTorn)
		m := newRefModel()
		if runWorkload(t, s, ops, m) {
			t.Fatal("fault-free pass crashed")
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m.commitAll()
		verifyRecovery(t, fd.Inner(), m, fmt.Sprintf("seed %d clean", seed))
		points := crashPoints(fd.WriteBounds())

		for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit, disk.FaultFlip} {
			for _, pt := range points {
				s, fd := newCrashRig(t)
				// Seeded flip: the corrupted byte and mask derive from the
				// seed recorded in the point string, so any failure here is
				// reproducible bit-for-bit.
				flipSeed := seed*1_000_000 + pt
				if mode == disk.FaultFlip {
					fd.SetFlipSeed(flipSeed)
				}
				fd.Arm(pt, mode)
				m := newRefModel()
				crashed := runWorkload(t, s, ops, m)
				if !crashed && fd.Tripped() {
					t.Fatalf("seed %d %v@%d: fault tripped but no op reported it", seed, mode, pt)
				}
				point := fmt.Sprintf("seed %d %v@%d", seed, mode, pt)
				if mode == disk.FaultFlip {
					point = fmt.Sprintf("%s flipseed=%d", point, flipSeed)
				}
				rec := verifyRecovery(t, fd.Inner(), m, point)
				if t.Failed() {
					return // one failing crash point is enough detail
				}
				// Life goes on after the reboot: run more ops on the
				// recovered store, checkpoint, and verify the final image
				// exactly (this leg is what catches latent replay-state
				// bugs, like a stale dead flag poisoning the next sync).
				continueAfterRecovery(t, rec, m, seed*1_000_000+pt, point)
				verifyRecovery(t, fd.Inner(), m, point+" post-continuation")
				if t.Failed() {
					return
				}
			}
		}
	}
}

// TestAcknowledgedDeleteIsDurable is the directed reproduction of the lost
// tombstone TestCrashRecoveryConcurrentEveryPoint used to hit by chance at
// GOMAXPROCS ≥ 2: a SyncObject of a deleted object may be acknowledged
// without a log record only when no committed snapshot and no replayable
// record still holds the object.  Two single-threaded windows where the
// deleted object's entry used to be pruned from memory too early:
//
//   - failed-checkpoint: a checkpoint body vacates the object's home in
//     memory and then dies at every one of its write boundaries in turn; the
//     retried checkpoint's seal found "dead, no home" and pruned the entry,
//     and the sync that followed was acknowledged with no I/O at all.
//   - open-body: the object exists on disk only as a log record; the seal
//     pruned its dead entry at once, and a sync acknowledged while the body
//     was still open was lost by a crash before the snapshot committed.
func TestAcknowledgedDeleteIsDurable(t *testing.T) {
	data := []byte("deleted, synced, and must stay deleted")
	mustGone := func(t *testing.T, dev disk.Device, what string) {
		t.Helper()
		s2, err := Open(dev, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s2.Get(0); !errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("%s: SyncObject acknowledged the delete, yet the object recovered as %q, %v", what, got, err)
		}
	}
	t.Run("failed-checkpoint", func(t *testing.T) {
		prepare := func() (*Store, *disk.FaultDisk) {
			s, fd := newCrashRig(t)
			if err := s.Put(0, data); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(0); err != nil {
				t.Fatal(err)
			}
			fd.Arm(-1, disk.FaultOmit) // restart the byte count at the checkpoint under test
			return s, fd
		}
		s, fd := prepare()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, pt := range crashPoints(fd.WriteBounds()) {
			s, fd := prepare()
			fd.Arm(pt, disk.FaultOmit)
			first, retry := s.Checkpoint(), s.Checkpoint()
			if err := s.SyncObject(0); err == nil {
				mustGone(t, fd.Inner(), fmt.Sprintf("omit@%d (checkpoint: %v, retry: %v)", pt, first, retry))
			}
		}
	})
	t.Run("open-body", func(t *testing.T) {
		s, fd := newCrashRig(t)
		if err := s.Put(0, data); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(0); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(0); err != nil {
			t.Fatal(err)
		}
		entered, release := make(chan struct{}), make(chan struct{})
		s.ckptGate = func() {
			close(entered)
			<-release
		}
		ckptDone := make(chan error, 1)
		go func() { ckptDone <- s.Checkpoint() }()
		<-entered
		if err := s.SyncObject(0); err != nil {
			t.Fatal(err)
		}
		// Power fails before the open body writes anything.
		fd.Arm(0, disk.FaultOmit)
		close(release)
		if err := <-ckptDone; !errors.Is(err, disk.ErrFault) {
			t.Fatalf("checkpoint on a dead device = %v", err)
		}
		mustGone(t, fd.Inner(), "crash with the body open")
	})
}

// TestAcknowledgedPutSurvivesAFailedCheckpoint is the mirror image of the
// failed-checkpoint window above, for an object that exists: a checkpoint
// body writes the object to a new home, records that home in the table in
// memory, and then dies at every one of its write boundaries in turn.  The
// committed snapshot knows nothing of the new home, so the object must be
// dirty again: left clean it could be evicted, and a SyncObject acknowledged
// with no I/O at all for an object no committed snapshot or record holds.
func TestAcknowledgedPutSurvivesAFailedCheckpoint(t *testing.T) {
	data := []byte("put, synced, and must still be there")
	prepare := func() (*Store, *disk.FaultDisk) {
		s, fd := newCrashRig(t)
		if err := s.Put(0, data); err != nil {
			t.Fatal(err)
		}
		return s, fd
	}
	s, fd := prepare()
	fd.Arm(-1, disk.FaultOmit)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, evict := range []bool{true, false} {
		for _, pt := range crashPoints(fd.WriteBounds()) {
			s, fd := prepare()
			fd.Arm(pt, disk.FaultOmit)
			first := s.Checkpoint()
			if evict {
				s.EvictCache()
			}
			if err := s.SyncObject(0); err != nil {
				continue // nothing was acknowledged
			}
			s2, err := Open(fd.Inner(), crashOpts)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := s2.Get(0); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("omit@%d (checkpoint: %v, evicted: %v): SyncObject acknowledged the object, yet it recovered as %q, %v", pt, first, evict, got, err)
			}
		}
	}
}
