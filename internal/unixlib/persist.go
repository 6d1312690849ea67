package unixlib

import (
	"errors"
	"fmt"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
)

// Persistence bridge to the single-level store.  When a store is attached,
// file and directory segments are mirrored into it keyed by their kernel
// object ID, so the durability semantics of the paper apply: asynchronous
// writes reach disk only at the next checkpoint, per-file fsync commits one
// object through the write-ahead log, and directory fsync (or an explicit
// group sync) checkpoints the entire system state.
//
// On a real HiStar machine the kernel itself writes every object to disk at
// each snapshot; mirroring at the library layer preserves the same on-disk
// traffic for the objects the benchmarks exercise without entangling the
// kernel simulation with the disk model.
//
// This file is the only one in the library that calls the store (Boot just
// hands it over), which makes it the seam ROADMAP item 1 step (1) replaces:
// once a segment's bytes are a store object, the mirror and its second copy
// of every byte go, and this file with them.  Until then it is the whole of
// what the library asks of a store:
//
//   - label at create: persistLabel, where the object is made;
//   - mirror: mirror, after every write of a file's or directory's bytes;
//   - sync group: syncFiles (fsync) and SyncWholeSystem (group sync);
//   - delete: persistDelete, when the last name of an object goes;
//   - page-in and evict: pageInFile before a read, EvictFileCache;
//
// plus the snapshot sink golden images are recorded through (golden.go).

// persistLabel records an object's information-flow label in the store.  It
// is called once, where the object is created and its label is already in
// hand, so mirror stays free of extra kernel calls.  The label travels with
// the object so a restored system can rebuild its canonical form (and
// fingerprint) without consulting the kernel.
func (sys *System) persistLabel(id kernel.ID, lbl label.Label) {
	if sys.Persist == nil {
		return
	}
	_ = sys.Persist.SetLabel(uint64(id), lbl)
}

// mirror records the current contents of the given segments in the store's
// in-memory dirty set (no disk I/O yet): one whole-segment read each — a
// direct call for one segment, one ring batch for several.  A segment that
// cannot be read is skipped; its label was recorded by persistLabel.
func (sys *System) mirror(tc *kernel.ThreadCall, segs ...kernel.CEnt) {
	if sys.Persist == nil || len(segs) == 0 {
		return
	}
	if len(segs) == 1 {
		if data, err := tc.SegmentRead(segs[0], 0, maxSegRead); err == nil {
			_ = sys.Persist.Put(uint64(segs[0].Object), data)
		}
		return
	}
	r := tc.NewRing()
	for _, s := range segs {
		r.Submit(kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: s, Off: 0, Len: maxSegRead})
	}
	comps, err := r.Wait(len(segs))
	if err != nil {
		return
	}
	for i, s := range segs {
		if comps[i].Err == nil {
			_ = sys.Persist.Put(uint64(s.Object), comps[i].Val)
		}
	}
}

// syncFiles is the one fsync body, and states Section 7.1's two consistency
// choices once.  Every distinct target that names a file segment is mirrored
// and committed through the write-ahead log: a direct SyncObject for one
// file; for several, one ring batch of OpSync entries, which reaches the
// store as a single SyncObjects group — at most ⌈files/GroupCommitRecords⌉
// log flushes instead of one per file.  A target that names no file segment
// is what a directory's descriptor holds, and fsync of a directory
// checkpoints the entire system state (Section 7.1's explanation for the
// synchronous unlink numbers) — after the file syncs, so it covers them too.
func (sys *System) syncFiles(tc *kernel.ThreadCall, targets ...kernel.CEnt) error {
	if sys.Persist == nil {
		return nil
	}
	var files []kernel.CEnt
	checkpoint := false
	seen := make(map[kernel.ID]bool, len(targets))
	for _, t := range targets {
		switch {
		case t.Object == kernel.NilID:
			checkpoint = true
		case !seen[t.Object]:
			seen[t.Object] = true
			files = append(files, t)
		}
	}
	sys.mirror(tc, files...)
	var err error
	if len(files) == 1 {
		err = sys.Persist.SyncObject(uint64(files[0].Object))
	} else if len(files) > 1 {
		r := tc.NewRing()
		r.SetSyncer(sys.Persist)
		for _, f := range files {
			r.Submit(kernel.RingEntry{Op: kernel.OpSync, Seg: f})
		}
		comps, werr := r.Wait(len(files))
		err = mapKernelErr(werr)
		for i := 0; err == nil && i < len(comps); i++ {
			err = mapKernelErr(comps[i].Err)
		}
	}
	if checkpoint {
		if cerr := sys.SyncWholeSystem(); err == nil {
			err = cerr
		}
	}
	return err
}

// persistDelete records an object's deletion.
func (sys *System) persistDelete(id kernel.ID) {
	if sys.Persist == nil {
		return
	}
	_ = sys.Persist.Delete(uint64(id))
}

// pageInFile models HiStar's whole-segment paging: the prototype "does not
// support paging in of partial segments, so the entire file segment is paged
// in when the file is first accessed" (Section 7.1).  Reading any byte of an
// uncached file costs a full-object read from the store.
//
// Most store errors are ignored (the contents authoritative for the
// simulation live in the kernel segment; the read only drives the latency
// model) — but a detected-corruption error is real damage a real kernel
// would refuse to page in, so it is surfaced as kernel.ErrCorrupt and
// reaches the caller as EIO.
func (sys *System) pageInFile(file kernel.CEnt) error {
	if sys.Persist == nil {
		return nil
	}
	if sys.Persist.Cached(uint64(file.Object)) {
		return nil
	}
	_, err := sys.Persist.Get(uint64(file.Object))
	if err != nil && (errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrQuarantined)) {
		return fmt.Errorf("%w: paging in object %d: %v", kernel.ErrCorrupt, file.Object, err)
	}
	return nil
}

// SyncWholeSystem checkpoints the single-level store: every dirty object is
// written to its home location and the metadata trees and superblock are
// updated once.
func (sys *System) SyncWholeSystem() error {
	if sys.Persist == nil {
		return nil
	}
	return sys.Persist.Checkpoint()
}

// EvictFileCache drops clean objects from the store's cache so subsequent
// reads hit the simulated disk (benchmark plumbing for the uncached phases).
func (sys *System) EvictFileCache() {
	if sys.Persist != nil {
		sys.Persist.EvictCache()
	}
}

// snapshotSink bridges kernel container snapshots to the store's bundle
// layer: captured segments become store objects pinned by a refcounted
// bundle, clones become extent-sharing aliases, and validation goes to the
// bundle's CRC walk.  Attached by Boot when a persistent store is present.
type snapshotSink struct {
	st *store.Store
}

func (s snapshotSink) Record(name string, objs []kernel.SnapshotObjectData) (uint64, error) {
	ids := make([]uint64, 0, len(objs))
	for _, o := range objs {
		if err := s.st.PutLabeled(o.ID, o.Label, o.Data); err != nil {
			return 0, err
		}
		ids = append(ids, o.ID)
	}
	return s.st.SnapshotBundle(name, ids)
}

func (s snapshotSink) Validate(storeLineage uint64) error {
	return s.st.ValidateBundle(storeLineage)
}

func (s snapshotSink) Clone(storeLineage uint64, pairs []kernel.ClonePair) error {
	for _, p := range pairs {
		if err := s.st.CloneObjectLabeled(storeLineage, p.SrcID, p.DstID, p.Label); err != nil {
			return err
		}
	}
	return nil
}

func (s snapshotSink) Drop(storeLineage uint64) error {
	return s.st.DeleteBundle(storeLineage)
}
