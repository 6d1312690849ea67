package unixlib

import (
	"errors"

	"histar/internal/kernel"
)

// Ring-driven multi-FD I/O, for a server flushing many dirty files: call by
// call it would pay, per file, a write syscall and — the expensive part — one
// write-ahead-log flush for the fsync.  Here all files' writes go through one
// ring batch (adjacent same-file writes coalesce to one lock round-trip) and
// syncFiles commits them as one group.

// syncFiles is the one fsync body, and states Section 7.1's two consistency
// choices once.  Every distinct target that names a file segment becomes one
// OpSync entry of a single ring batch — of length one for one file — which the
// kernel pushes and commits through the write-ahead log as one group: at most
// ⌈files/GroupCommitRecords⌉ log flushes instead of one per file.  A target
// that names no file segment is what a directory's descriptor holds, and
// fsync of a directory checkpoints the entire system state (Section 7.1's
// explanation for the synchronous unlink numbers) — after the file syncs, so
// it covers them too.  On a machine without a store there is nothing to do.
func (p *Process) syncFiles(targets ...kernel.CEnt) error {
	if p.sys.evictCache == nil {
		return nil
	}
	r := p.TC.NewRing()
	checkpoint := false
	seen := make(map[kernel.ID]bool, len(targets))
	for _, t := range targets {
		switch {
		case t.Object == kernel.NilID:
			checkpoint = true
		case !seen[t.Object]:
			seen[t.Object] = true
			r.Submit(kernel.RingEntry{Op: kernel.OpSync, Seg: t})
		}
	}
	comps, err := r.Wait(0) // any count: a Wait completes every pending entry
	err = mapKernelErr(err)
	for i := 0; err == nil && i < len(comps); i++ {
		err = mapKernelErr(comps[i].Err)
	}
	if checkpoint {
		if cerr := mapKernelErr(p.TC.Sync()); err == nil {
			err = cerr
		}
	}
	return err
}

// WriteOp is one positional write of a writev/fsync fan-out.
type WriteOp struct {
	FD   int
	Off  int64
	Data []byte
}

// PwritevFsync applies every write and makes every touched file durable with
// one group sync.  It returns the total bytes written.
// Writes apply in op order (the ring runs a batch in submission order); the
// first error is returned after all ops have been attempted, matching the
// per-call loop it replaces.
func (p *Process) PwritevFsync(ops []WriteOp) (int, error) {
	// Resolve descriptors, collect the distinct target files in
	// first-appearance order, and queue every write on one ring batch.
	var files []kernel.CEnt
	seen := make(map[kernel.ID]bool, len(ops))
	targets := make([]kernel.CEnt, len(ops)) // zero where the op did not resolve
	var firstErr error
	r := p.TC.NewRing()
	for i, op := range ops {
		fd, err := p.getFD(op.FD)
		if err == nil {
			targets[i], err = fd.file()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !seen[targets[i].Object] {
			seen[targets[i].Object] = true
			files = append(files, targets[i])
		}
		r.Submit(kernel.RingEntry{
			Op: kernel.OpSegmentWrite, Seg: targets[i], Off: int(op.Off), Data: op.Data,
		})
	}
	comps, err := r.Wait(0) // any count: a Wait completes every pending entry
	if err != nil {
		return 0, mapKernelErr(err)
	}

	// Settle the writes.  A quota failure falls back to writeAt and its
	// quota_move retry, so ring submission keeps Pwrite's semantics for files
	// that outgrow their slack.
	total, ci := 0, 0
	for i, op := range ops {
		if targets[i].Object == kernel.NilID {
			continue
		}
		werr := comps[ci].Err
		ci++
		if errors.Is(werr, kernel.ErrQuota) {
			werr = p.writeAt(targets[i], op.Off, op.Data)
		} else {
			werr = mapKernelErr(werr)
		}
		if werr != nil {
			if firstErr == nil {
				firstErr = werr
			}
			continue
		}
		total += len(op.Data)
	}
	for _, f := range files {
		p.touchMtime(f)
	}
	if err := p.syncFiles(files...); err != nil && firstErr == nil {
		firstErr = err
	}
	return total, firstErr
}

// FsyncMany is fsync over many descriptors at once: every file is committed
// in one group sync.
func (p *Process) FsyncMany(nums []int) error {
	targets := make([]kernel.CEnt, 0, len(nums))
	var firstErr error
	for _, num := range nums {
		fd, err := p.getFD(num)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		targets = append(targets, fd.File)
	}
	if err := p.syncFiles(targets...); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
