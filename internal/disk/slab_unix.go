//go:build unix

package disk

import (
	"runtime"
	"syscall"
)

// mapSlab gives d its n bytes of platter as an anonymous private mapping,
// off the Go heap: the kernel hands out zeroed pages as they are first
// touched, and the garbage collector neither counts the mapping nor paces
// on it, so a 256 MiB disk costs the process the bytes written to it, not a
// heap goal twice its size.  The mapping goes with d (a finalizer unmaps it).
// The slab never leaves the Disk, and every access to it holds d.mu with a
// deferred unlock, which keeps d reachable, and so mapped, until it is done.
// Where the mapping fails the slab comes from the heap, as elsewhere.
func (d *Disk) mapSlab(n int64) {
	b, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		d.data = make([]byte, n)
		return
	}
	d.data = b
	// An unmap can fail only on a range that is not a mapping; nothing is
	// left to tell of it when the Disk is gone.
	runtime.SetFinalizer(d, func(d *Disk) { _ = syscall.Munmap(d.data) })
}
