package store

// Crash-injection recovery harness: a randomized workload of Put /
// PutLabeled / Delete / SyncObject / Checkpoint, partial overwrites
// each followed by its SyncObject, and checkpoints whose body fails at a
// barrier the machine survives, runs on a write-through
// disk wrapped in a disk.FaultDisk, which kills the device at an injected
// crash point (a byte offset into the write stream, torn or omitted at
// sector granularity).  The surviving image is then reopened and checked
// against a reference model:
//
//   - every state committed before the crash (by a successful SyncObject or
//     Checkpoint) must come back exactly — contents and label;
//   - any newer state observed instead must be one the object actually
//     passed through (a later commit may have become durable even though
//     the crash made its success unreportable).
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
	"maps"
	"math/rand"
	"slices"
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
	opCheckpoint
	opPatch
	opFailCheckpoint
	numOpKinds
)

type wlOp struct {
	kind opKind
	id   uint64
	off  int // opPatch: where data goes in the object's bytes
	data []byte
	lbl  label.Label
}

// patched is op's bytes laid over prev, and the range they changed, as the
// kernel pushes a partial overwrite; an object that does not exist is
// created whole.
func patched(prev objState, op wlOp) (data []byte, lo, hi int) {
	if !prev.exists || len(prev.data) == 0 {
		return op.data, 0, len(op.data)
	}
	data = append([]byte(nil), prev.data...)
	lo = op.off % len(data)
	return data, lo, lo + copy(data[lo:], op.data)
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
	// deltas and bases count the checkpoints that committed as a delta
	// alone and those that also wrote a base.
	deltas, bases int
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
	var ops []wlOp
	for i := 0; i < n; i++ {
		id := base + uint64(r.Intn(span))
		switch k := opKind(r.Intn(int(numOpKinds))); k {
		case opPut:
			ops = append(ops, wlOp{kind: opPut, id: id, data: randPayload(r)})
		case opPutLabeled:
			ops = append(ops, wlOp{kind: opPutLabeled, id: id, data: randPayload(r), lbl: randLabel(r)})
		case opDelete:
			ops = append(ops, wlOp{kind: opDelete, id: id})
		case opSync:
			ops = append(ops, wlOp{kind: opSync, id: id})
		case opCheckpoint:
			ops = append(ops, wlOp{kind: opCheckpoint})
		case opPatch:
			// A partial overwrite and its fsync: a range record, when the
			// store can build on a whole one.
			data := randPayload(r)
			ops = append(ops, wlOp{kind: opPatch, id: id, off: r.Intn(1500), data: data[:min(len(data), 64)], lbl: randLabel(r)},
				wlOp{kind: opSync, id: id})
		case opFailCheckpoint:
			ops = append(ops, wlOp{kind: opFailCheckpoint})
		}
	}
	return ops
}

// errBarrier is the flush failure opFailCheckpoint injects.
var errBarrier = errors.New("injected barrier failure")

// failCheckpoint runs a checkpoint whose first flush fails with errBarrier —
// the body's metadata barrier, since a seal writes nothing — and the machine
// stays up: nothing commits, and the store carries on.
func failCheckpoint(s *Store) error {
	dev := s.d
	if fd, ok := dev.(*disk.FaultDisk); ok {
		dev = fd.Inner() // a store reopened after the crash has none
	}
	inner := dev.(*disk.Disk)
	inner.FailNextFlush(errBarrier)
	defer inner.FailNextFlush(nil) // not consumed when the crash point came first
	return s.Checkpoint()
}

// epochNow reads the epoch under ckptMu the way a sync records it: with
// incremental checkpoints, "a checkpoint completed during my op" is not
// enough to mark everything durable (the completing body may belong to a
// seal from before this worker's recent Puts).  Only a checkpoint SEALED
// strictly after this point — observed as the committed epoch moving past
// the value returned — captured every state pushed so far.
func epochNow(s *Store) uint64 {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	return s.epoch.Load()
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
	crashLogSize = 96 << 10
	crashSectors = 1 << 14 // 8 MB write-through disk
)

// crashOpts shrinks every region so the randomized workloads exercise log
// reclamation, checkpoint fallbacks, and the segment cleaner: the 64 KB
// segments fill and turn over within a handful of checkpoints.
var crashOpts = Options{LogSize: crashLogSize, SegmentSize: 64 << 10}

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
			if faulted(s.PutLabeled(op.id, op.lbl, op.data, 0, whole)) {
				return true
			}
			m.push(op.id, objState{exists: true, data: op.data, lbl: op.lbl, hasLabel: true})
		case opPatch:
			data, lo, hi := patched(m.latest(op.id), op)
			if faulted(s.PutLabeled(op.id, op.lbl, data, lo, hi)) {
				return true
			}
			m.push(op.id, objState{exists: true, data: data, lbl: op.lbl, hasLabel: true})
		case opDelete:
			if faulted(s.Delete(op.id)) {
				return true
			}
			m.push(op.id, objState{exists: false})
		case opSync:
			q := epochNow(s)
			if faulted(s.SyncObject(op.id)) {
				return true
			}
			if s.committedEpoch() > q {
				// The log filled and SyncObject checkpointed everything.
				m.commitAll()
			}
			m.commit(op.id)
		case opCheckpoint:
			if faulted(s.Checkpoint()) {
				return true
			}
			m.commitAll()
			if len(s.chain) == 1 {
				m.bases++
			} else {
				m.deltas++
			}
		case opFailCheckpoint:
			// The failed attempt made nothing durable.
			switch err := failCheckpoint(s); {
			case errors.Is(err, errBarrier):
			case faulted(err):
				return true
			default:
				t.Fatal("a checkpoint committed across a failed barrier")
			}
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
					if err = s.PutLabeled(op.id, op.lbl, op.data, 0, whole); err == nil {
						m.push(op.id, objState{exists: true, data: op.data, lbl: op.lbl, hasLabel: true})
					}
				case opPatch:
					data, lo, hi := patched(m.latest(op.id), op)
					if err = s.PutLabeled(op.id, op.lbl, data, lo, hi); err == nil {
						m.push(op.id, objState{exists: true, data: data, lbl: op.lbl, hasLabel: true})
					}
				case opDelete:
					if err = s.Delete(op.id); err == nil {
						m.push(op.id, objState{exists: false})
					}
				case opSync:
					if err = s.SyncObject(op.id); err == nil {
						m.commit(op.id)
					}
				case opCheckpoint, opFailCheckpoint:
					// A successful checkpoint made at least this worker's own
					// latest states durable (its ops are sequential, so none
					// were in flight); other workers' objects are left to
					// their own conservative marks.  A failed barrier could
					// land on another worker's flush, so no checkpoint is made
					// to fail here.
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
// workload seeds, run each workload through crashMatrix.
func TestCrashRecoveryEveryPoint(t *testing.T) {
	seeds := []int64{1, 2, 3}
	opsPerSeed := 90
	if testing.Short() {
		seeds = seeds[:1]
		opsPerSeed = 50
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		ops := append(genWorkload(r, opsPerSeed), chainToBase(r, 12)...)
		crashMatrix(t, fmt.Sprintf("seed %d", seed), ops, seed*1_000_000, 1, continueAfterRecovery)
		if t.Failed() {
			return
		}
	}
}

// chainToBase is maxChainLinks puts over ids objects, each checkpointed:
// appended to a workload, it carries the chain past its bound, so that a
// crash matrix covers a base's writes as well as a delta's.
func chainToBase(r *rand.Rand, ids int) (ops []wlOp) {
	for i := range maxChainLinks {
		ops = append(ops, wlOp{kind: opPut, id: uint64(i % ids), data: randPayload(r)}, wlOp{kind: opCheckpoint})
	}
	return ops
}

// crashMatrix replays ops with a fault injected at every crash point (every
// stride-th, to thin a long schedule) of a fault-free pass, in each fault
// mode, and verifies recovery each time.  Life then goes on after the
// reboot: cont runs more ops on the recovered store, with contSeed, and the
// final image is verified again (this leg is what catches latent replay-state
// bugs, like a stale dead flag poisoning the next sync).
func crashMatrix(t *testing.T, name string, ops []wlOp, seedBase int64, stride int,
	cont func(t *testing.T, s *Store, m *refModel, contSeed int64, point string)) {
	t.Helper()
	// Fault-free pass: learn the write boundaries (and make sure the
	// workload itself is clean end to end).
	s, fd := newCrashRig(t)
	fd.Arm(-1, disk.FaultTorn)
	m := newRefModel()
	if runWorkload(t, s, ops, m) {
		t.Fatalf("%s: fault-free pass crashed", name)
	}
	// Every write boundary of both kinds of checkpoint gets its rung.
	if m.deltas == 0 || m.bases == 0 {
		t.Fatalf("%s: %d checkpoints committed a delta alone and %d wrote a base; the matrix needs both", name, m.deltas, m.bases)
	}
	t.Logf("%s: %d delta checkpoints, %d with a base", name, m.deltas, m.bases)
	verifyRecovery(t, fd.Inner(), m, name+" clean")
	var points []int64
	for i, pt := range crashPoints(fd.WriteBounds()) {
		if i%stride == 0 {
			points = append(points, pt)
		}
	}
	for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit, disk.FaultFlip} {
		for _, pt := range points {
			s, fd := newCrashRig(t)
			// Seeded flip: the corrupted byte and mask derive from the seed
			// recorded in the point string, so any failure here is
			// reproducible bit-for-bit.
			flipSeed := seedBase + pt
			if mode == disk.FaultFlip {
				fd.SetFlipSeed(flipSeed)
			}
			fd.Arm(pt, mode)
			m := newRefModel()
			crashed := runWorkload(t, s, ops, m)
			if !crashed && fd.Tripped() {
				t.Fatalf("%s %v@%d: fault tripped but no op reported it", name, mode, pt)
			}
			point := fmt.Sprintf("%s %v@%d", name, mode, pt)
			if mode == disk.FaultFlip {
				point = fmt.Sprintf("%s flipseed=%d", point, flipSeed)
			}
			rec := verifyRecovery(t, fd.Inner(), m, point)
			if t.Failed() {
				return // one failing crash point is enough detail
			}
			cont(t, rec, m, flipSeed, point)
			verifyRecovery(t, fd.Inner(), m, point+" post-continuation")
			if t.Failed() {
				return
			}
		}
	}
}

// failedCheckpointWorkload is the shape of a checkpoint whose body fails and
// is retried.  First an object too large for a segment is rewritten across a
// failed attempt: the retry must not relocate it into the segment of its own
// the committed snapshot still names, or a crash before the retry commits
// loses the committed state.  Then syncs between a failed attempt and its
// retry go into the log in the failed attempt's epoch, beside older and newer
// states of the same objects, and a second failed attempt leaves its own
// records in the log for the reopen to find.
func failedCheckpointWorkload() []wlOp {
	r := rand.New(rand.NewSource(29))
	put := func(id uint64) wlOp { return wlOp{kind: opPutLabeled, id: id, data: randPayload(r), lbl: randLabel(r)} }
	big := func(id uint64) wlOp {
		b := make([]byte, 40<<10)
		r.Read(b)
		return wlOp{kind: opPut, id: id, data: b}
	}
	sync := func(id uint64) wlOp { return wlOp{kind: opSync, id: id} }
	fail := wlOp{kind: opFailCheckpoint}
	ckpt := wlOp{kind: opCheckpoint}
	return []wlOp{
		big(5), ckpt, big(5), fail, ckpt,
		put(1), put(2), put(3), put(4), sync(2), ckpt,
		put(1), put(2), fail,
		put(1), sync(1), put(1), // a synced state, then a newer one only the retry captures
		put(3), sync(3), ckpt,
		put(2), sync(2), fail, fail,
		put(4), sync(4), put(1), sync(1), // records of the last failed attempt's epoch
	}
}

// TestCrashRecoveryEpochsEveryPoint runs failedCheckpointWorkload through the
// crash matrix.  At every crash point no object may come back below the
// retry's snapshot: a record synced after a failed attempt carries that
// attempt's epoch, older than the retry's, and never replays over it.  After
// each reboot every object is overwritten and checkpointed, and power is cut
// again: the first seal after Open must take an epoch above every recovered
// record's, or a record synced before the reboot replays over its snapshot.
func TestCrashRecoveryEpochsEveryPoint(t *testing.T) {
	ops := append(failedCheckpointWorkload(), chainToBase(rand.New(rand.NewSource(30)), 5)...)
	crashMatrix(t, "failed checkpoint", ops, 29_000_000, 1, func(t *testing.T, s *Store, m *refModel, contSeed int64, point string) {
		var ids []uint64
		for id := range m.history {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		r := rand.New(rand.NewSource(contSeed))
		var cont []wlOp
		for _, id := range ids {
			cont = append(cont, wlOp{kind: opPut, id: id, data: randPayload(r)})
		}
		if runWorkload(t, s, append(cont, wlOp{kind: opCheckpoint}), m) {
			t.Fatalf("%s: continuation crashed with no fault armed", point)
		}
	})
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

// cutDisk loses power at the first write into [from, to) once hook is set:
// hook runs first, its own writes passing, and from then on every write and
// flush fails and reaches nothing.
type cutDisk struct {
	disk.Device
	from, to int64
	hook     func()
	cut      bool
}

func (c *cutDisk) WriteAt(p []byte, off int64) (int, error) {
	if h := c.hook; h != nil && off >= c.from && off < c.to {
		c.hook = nil
		h()
		c.cut = true
	}
	if c.cut {
		return 0, disk.ErrFault
	}
	return c.Device.WriteAt(p, off)
}

func (c *cutDisk) Flush() error {
	if c.cut {
		return disk.ErrFault
	}
	return c.Device.Flush()
}

// TestFailedHomeWriteChargesNoLive: a segment append whose device write
// fails must not count toward its segment's live bytes.  Three objects fill
// most of a 64 KiB segment and are checkpointed; a fourth's one home write
// fails and the checkpoint is retried; then the first three are deleted.
// The failed write's bytes name no home, so the first segment must empty and
// go, leaving as many segments and free bytes as a run without the fault.  A
// phantom live count keeps it forever: each checkpoint then picks it as a
// cleaning victim with nothing to move.
func TestFailedHomeWriteChargesNoLive(t *testing.T) {
	type outcome struct {
		free    int64
		segs    int
		cleaned uint64
	}
	run := func(fault bool) outcome {
		d := disk.New(disk.Params{Sectors: crashSectors}, &vclock.Clock{})
		cd := &cutDisk{Device: d, from: logOffset + crashOpts.LogSize, to: d.Size()}
		s, err := Format(cd, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 3; id++ {
			if err := s.Put(id, make([]byte, 16<<10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(4, make([]byte, 16<<10)); err != nil {
			t.Fatal(err)
		}
		if fault {
			cd.hook = func() {}
			if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
				t.Fatalf("checkpoint across the failed home write = %v", err)
			}
			cd.cut = false // the fault was one write, not a power cut
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 3; id++ {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		cleaned := s.Stats().SegsCleaned
		for i := 0; i < 3; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		return outcome{s.FreeBytes(), len(s.segs), s.Stats().SegsCleaned - cleaned}
	}
	got, want := run(true), run(false)
	if got.free != want.free || got.segs != want.segs {
		t.Errorf("after a failed home write: %d bytes free in %d segments; a run without the fault has %d in %d",
			got.free, got.segs, want.free, want.segs)
	}
	if got.cleaned > want.cleaned {
		t.Errorf("after a failed home write, three checkpoints cleaned %d segments; a run without the fault cleaned %d", got.cleaned, want.cleaned)
	}
}

// TestCommitWindowSyncSurvivesCrash: a sync acknowledged while a checkpoint
// has written the object home but not yet committed the delta naming that
// home must come back after a crash there.  Until the delta is written, the
// home is known only to the table in memory, so the store must still hold the
// sealed state (ckpt) and the sync must log it; a store that takes the
// written extent for durable answers "on-disk copy current" — all the more
// once the copy is evicted — and recovery brings back the older synced state.
// The power cut comes at the delta: the first segment's second sector, after
// the object's one.
func TestCommitWindowSyncSurvivesCrash(t *testing.T) {
	d := disk.New(disk.Params{Sectors: crashSectors, WriteCache: false}, &vclock.Clock{})
	dataStart := logOffset + crashOpts.LogSize
	cd := &cutDisk{Device: d, from: dataStart + disk.SectorSize, to: dataStart + crashOpts.SegmentSize}
	s, err := Format(cd, crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := []byte("v1 synced"), []byte("v2 synced in the window")
	if err := s.Put(1, v1); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, v2); err != nil {
		t.Fatal(err)
	}
	var syncErr error
	cd.hook = func() {
		s.EvictCache()
		syncErr = s.SyncObject(1)
	}
	if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
		t.Fatalf("checkpoint across the power cut: %v, want disk.ErrFault", err)
	}
	if cd.hook != nil {
		t.Fatal("the checkpoint never wrote its delta")
	}
	if syncErr != nil {
		t.Fatalf("sync in the commit window: %v", syncErr)
	}
	s2, err := Open(d, crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("after the crash: %q, %v; the sync acknowledged %q", got, err, v2)
	}
}

// flushFault is a write-back disk that calls fault on its flush-th flush
// from when the field is set, just before that flush runs.
type flushFault struct {
	*disk.Disk
	flush int
	fault func(*disk.Disk)
}

var errTear = errors.New("power lost mid-destage")

// tear makes the k-th flush from now lose power once n bytes are down.
func (d *flushFault) tear(k int, n int64) {
	d.flush, d.fault = k, func(d *disk.Disk) { d.FailFlushAfter(n, errTear) }
}

func (d *flushFault) Flush() error {
	if d.flush--; d.flush == 0 {
		d.fault(d.Disk)
	}
	return d.Disk.Flush()
}

// TestFailedCheckpointFreesNothing: a checkpoint that fails frees nothing.
// Object 1 is too large to pack, so its committed state v1 lives in a
// segment of its own.  A checkpoint of v2 writes v2 elsewhere and fails at its
// flush; the retry must not relocate v2 by best fit into v1's extent, which
// the committed snapshot still names, because power failing once the
// retry's data is on the platter but its delta is not must leave v1 intact.
// v2 lies above the retry's delta, so its data takes a flush of its own, and
// the power fails at the start of the delta's.
func TestFailedCheckpointFreesNothing(t *testing.T) {
	d := &flushFault{Disk: disk.New(disk.Params{Sectors: 4 << 20 / disk.SectorSize, WriteCache: true}, &vclock.Clock{})}
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := bytes.Repeat([]byte("v1"), 100<<10), bytes.Repeat([]byte("v2"), 100<<10)
	if err := s.Put(1, v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, v2); err != nil {
		t.Fatal(err)
	}
	d.FailNextFlush(errBarrier)
	if err := s.Checkpoint(); !errors.Is(err, errBarrier) {
		t.Fatalf("checkpoint across a failed barrier = %v", err)
	}
	d.tear(2, 0) // the retry's data destages, and its delta does not
	if err := s.Checkpoint(); !errors.Is(err, errTear) {
		t.Fatalf("retry across the power cut = %v", err)
	}
	d.Crash()
	platter := make([]byte, d.Size())
	if _, err := d.ReadAt(platter, 0); err != nil || !bytes.Contains(platter, v2) {
		t.Fatal("the retry's v2 is not on the platter: the test no longer tears between the data and the delta")
	}
	s2, err := Open(d.Disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("after the crash object 1 reads %d bytes, %v; want the committed v1", len(got), err)
	}
}

// TestFailedCommitLeavesNoLinkForALaterFlush: a checkpoint whose one flush
// fails leaves its run header, data and delta in the write cache, and the
// next flush — here a log commit's — destages whatever the cache holds.  The
// store has put its tables back, so after a crash the remount must come back
// at the epoch the store kept, not at the failed link's, with every
// acknowledged sync.
func TestFailedCommitLeavesNoLinkForALaterFlush(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 4 << 20 / disk.SectorSize, WriteCache: true}, &vclock.Clock{})
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	for id := uint64(1); id <= 20; id++ {
		want[id] = fmt.Sprintf("object %d, checkpointed", id)
		if err := s.Put(id, []byte(want[id])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if err := s.Put(id, []byte("sealed into the failed checkpoint")); err != nil {
			t.Fatal(err)
		}
	}
	d.FailNextFlush(errBarrier)
	if err := s.Checkpoint(); !errors.Is(err, errBarrier) {
		t.Fatalf("checkpoint across a failed flush = %v", err)
	}
	want[30] = "synced after the failed checkpoint"
	if err := s.Put(30, []byte(want[30])); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(30); err != nil {
		t.Fatal(err)
	}
	kept := s.metaEpoch
	d.Crash()
	s2, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.metaEpoch != kept {
		t.Fatalf("the remount came back at epoch %d; the store was at %d", s2.metaEpoch, kept)
	}
	checkAll(t, s2, want)
}

// TestFailedBaseFlipKeepsTheSuperblock: a base whose superblock flush fails
// leaves the two new copies in the write cache, and the store puts its
// tables back, the base's extent free again.  The next flush — here a log
// commit's — must destage the copies the disk held, not ones naming a base
// in free space and a chain id no later link carries.
func TestFailedBaseFlipKeepsTheSuperblock(t *testing.T) {
	d := &flushFault{Disk: disk.New(disk.Params{Sectors: 4 << 20 / disk.SectorSize, WriteCache: true}, &vclock.Clock{})}
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	s, err := Format(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	put := func(id uint64, v string) {
		t.Helper()
		if err := s.Put(id, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	for id := uint64(1); id <= 20; id++ {
		put(id, fmt.Sprintf("object %d, checkpointed", id))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	held := make([]byte, sbBackupOff+sbCopySize)
	if _, err := d.ReadAt(held, superblockOffset); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		put(id, fmt.Sprintf("object %d, in the delta before the failed base", id))
	}
	s.base.renew = true // the next checkpoint writes a base
	flushes := d.Stats().Flushes
	d.flush, d.fault = 3, func(d *disk.Disk) { d.FailNextFlush(errBarrier) }
	if err := s.Checkpoint(); !errors.Is(err, errBarrier) || d.Stats().Flushes-flushes != 3 {
		t.Fatalf("checkpoint = %v in %d flushes; want the third, the superblock's, to fail", err, d.Stats().Flushes-flushes)
	}
	put(30, "synced after the failed base")
	if err := s.SyncObject(30); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	sb := make([]byte, len(held))
	if _, err := d.ReadAt(sb, superblockOffset); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, held) {
		t.Fatal("a later flush destaged the failed base's superblock copies")
	}
	s2, err := Open(d.Disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.metaEpoch != s.metaEpoch {
		t.Fatalf("the remount came back at epoch %d; the store was at %d", s2.metaEpoch, s.metaEpoch)
	}
	checkAll(t, s2, want)
}

// TestFailedCheckpointsKeepTheFreeList: a checkpoint that fails gives back
// what its body took.  500 objects of 512 bytes are checkpointed, then all
// rewritten; five checkpoints fail at their first flush, and after each the
// free space is within a segment of what it was after the first.
func TestFailedCheckpointsKeepTheFreeList(t *testing.T) {
	const segSize = 64 << 10
	d := disk.New(disk.Params{Sectors: 1 << 15, WriteCache: true}, &vclock.Clock{}) // 16 MiB
	s, err := Format(d, Options{LogSize: 1 << 20, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	for round := byte(0); round < 2; round++ {
		for id := uint64(0); id < 500; id++ {
			if err := s.Put(id, bytes.Repeat([]byte{round, byte(id)}, 256)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var first int64
	for i := 0; i < 5; i++ {
		if err := failCheckpoint(s); !errors.Is(err, errBarrier) {
			t.Fatalf("checkpoint %d across a failed flush: %v", i, err)
		}
		free := s.FreeBytes()
		if i == 0 {
			first = free
		} else if free < first-segSize || free > first+segSize {
			t.Fatalf("after %d failed checkpoints %d bytes are free; after the first, %d", i+1, free, first)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedHomeWriteLeaksNothing: an extent allocated for a home write that
// fails is free again once a checkpoint commits.  A one-shot fault fails the
// first data-region write of a checkpoint, into the object's 200 KiB segment
// of its own; the next checkpoint succeeds, and after a reopen the store has as
// many free bytes as a run that never faulted.
func TestFailedHomeWriteLeaksNothing(t *testing.T) {
	run := func(fault bool) int64 {
		d := disk.New(disk.Params{Sectors: crashSectors}, &vclock.Clock{})
		cd := &cutDisk{Device: d, from: logOffset + crashOpts.LogSize, to: d.Size()}
		s, err := Format(cd, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(1, make([]byte, 200<<10)); err != nil {
			t.Fatal(err)
		}
		if fault {
			cd.hook = func() {}
			if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
				t.Fatalf("checkpoint across the failed home write = %v", err)
			}
			cd.cut = false // the fault was one write, not a power cut
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(d, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		return s2.FreeBytes()
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("after a failed home write and a good checkpoint, %d bytes free; a run without the fault has %d", got, want)
	}
}

// TestCommitTornAtEverySector tears each flush of a checkpoint's commit at
// every sector: the write-back cache destages in ascending order, and power
// fails once n bytes are down.  In one layout the delta lies above its data,
// and the commit is one flush; in the other an object over half a segment is
// homed in a segment of its own above the delta, and the data takes a flush
// of its own before the delta's.  Every remount comes back at the epoch
// before the checkpoint or at its own, never a mix: the image oracle finds
// the tables that epoch's model sealed, and every object reads back as it
// was sealed.
func TestCommitTornAtEverySector(t *testing.T) {
	opts := Options{LogSize: 64 << 10, SegmentSize: 64 << 10}
	for _, above := range []bool{false, true} {
		t.Run(fmt.Sprintf("data-above-delta=%v", above), func(t *testing.T) {
			// build formats a store, commits the model's first state, seals
			// the second, and returns them with the disk, the store and the
			// sector of the second checkpoint's run header.
			build := func() (*flushFault, *Store, [2]map[uint64]oracleObject, uint64) {
				d := &flushFault{Disk: disk.New(disk.Params{Sectors: 4 << 20 / disk.SectorSize, WriteCache: true}, &vclock.Clock{})}
				s, err := Format(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(58))
				var models [2]map[uint64]oracleObject
				model := map[uint64]oracleObject{}
				put := func(id uint64, n int) {
					b := make([]byte, n)
					r.Read(b)
					lbl := rotLabel(id % 5)
					if err := s.PutLabeled(id, lbl, b, 0, whole); err != nil {
						t.Fatal(err)
					}
					model[id] = oracleObject{b, &lbl}
				}
				for id := uint64(1); id <= 20; id++ {
					put(id, 1+r.Intn(3000))
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				models[0] = maps.Clone(model)
				for id := uint64(1); id <= 5; id++ {
					put(id, 1+r.Intn(3000))
				}
				for id := uint64(21); id <= 25; id++ {
					put(id, 1+r.Intn(3000))
				}
				if err := s.Delete(6); err != nil {
					t.Fatal(err)
				}
				delete(model, 6)
				if above {
					put(30, 40<<10)
				}
				models[1] = model
				return d, s, models, s.metaEpoch
			}
			// The fault-free commit: what it writes, and in how many flushes.
			d, s, _, _ := build()
			written, flushes := d.Stats().BytesWritten, d.Stats().Flushes
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			written, flushes = d.Stats().BytesWritten-written, d.Stats().Flushes-flushes
			end := int64(written) + disk.SectorSize
			last := s.chain[len(s.chain)-1]
			if len(s.chain) == 1 {
				t.Fatal("the checkpoint wrote a base: the test tears a delta's commit")
			}
			dataAbove := false
			for _, id := range []uint64{1, 21, 30} {
				if h, ok := s.homeOf(id); ok && h.off > last.off {
					dataAbove = true
				}
			}
			if want := map[bool]uint64{false: 1, true: 2}[above]; dataAbove != above || flushes != want {
				t.Fatalf("data above the delta: %v, in %d flushes; the layout wants %v, in %d", dataAbove, flushes, above, want)
			}
			var outcomes [2]int
			for k := 1; k <= int(flushes); k++ {
				for n := int64(0); n <= end; n += disk.SectorSize {
					d, s, models, before := build()
					d.tear(k, n)
					if err := s.Checkpoint(); !errors.Is(err, errTear) {
						t.Fatalf("tear of flush %d at %d: checkpoint = %v", k, n, err)
					}
					d.Crash()
					s2, err := Open(d.Disk, opts)
					if err != nil {
						t.Fatalf("tear of flush %d at %d: %v", k, n, err)
					}
					i := 0
					if s2.metaEpoch != before {
						i = 1
					}
					if rep := s2.RecoveryReport(); rep.Degraded() {
						t.Fatalf("tear of flush %d at %d: the remount degraded: %+v", k, n, rep)
					}
					outcomes[i]++
					where := fmt.Sprintf("tear of flush %d at %d, epoch %d", k, n, s2.metaEpoch)
					checkImage(t, s2, d.Disk, models[i], where)
					for id := uint64(1); id <= 30; id++ {
						got, err := s2.Get(id)
						if o, ok := models[i][id]; ok && (err != nil || !bytes.Equal(got, o.data)) || !ok && !errors.Is(err, ErrNoSuchObject) {
							t.Fatalf("%s: object %d reads %d bytes, %v; the model sealed %v", where, id, len(got), err, ok)
						}
					}
				}
			}
			t.Logf("%d bytes in %d flushes; %d tears came back before the checkpoint, %d after it", written, flushes, outcomes[0], outcomes[1])
			if outcomes[0] == 0 || outcomes[1] == 0 {
				t.Fatalf("outcomes %v: the tears no longer cover both epochs", outcomes)
			}
		})
	}
}
