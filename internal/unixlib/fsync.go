package unixlib

import "histar/internal/kernel"

// syncFiles is the one fsync body, and states Section 7.1's two consistency
// choices once.  Every distinct target that names a file segment goes into a
// single SyncSegments call — of one segment for one file — which the kernel
// pushes and commits through the write-ahead log as one group: at most
// ⌈files/128⌉ log flushes instead of one per file.  A target that names no
// file segment is what a directory's descriptor holds, and fsync of a
// directory checkpoints the entire system state (Section 7.1's explanation
// for the synchronous unlink numbers) — after the file syncs, so it covers
// them too.  On a machine without a store there is nothing to do.
func (p *Process) syncFiles(targets ...kernel.CEnt) error {
	if !p.sys.persist {
		return nil
	}
	checkpoint := false
	files := make([]kernel.CEnt, 0, len(targets))
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
	var err error
	if len(files) > 0 {
		err = mapKernelErr(p.TC.SyncSegments(files...))
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

// PwritevFsync applies every write, in op order, and makes every touched
// file durable with one group sync.  It returns the total bytes written.  The
// first error is returned after all ops have been attempted, as a loop of
// Pwrite calls and one FsyncMany would.
func (p *Process) PwritevFsync(ops []WriteOp) (int, error) {
	var files []kernel.CEnt
	total := 0
	var firstErr error
	for _, op := range ops {
		fd, err := p.getFD(op.FD)
		var file kernel.CEnt
		if err == nil {
			file, err = fd.file()
		}
		if err == nil {
			files = append(files, file)
			err = p.writeAt(file, op.Off, op.Data)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		total += len(op.Data)
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
		var target kernel.CEnt
		if err == nil {
			target, err = fd.syncTarget()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		targets = append(targets, target)
	}
	if err := p.syncFiles(targets...); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
