//go:build !unix

package disk

// mapSlab gives d its n bytes of platter from the Go heap (see slab_unix.go
// for the mapping unix platforms use instead).
func (d *Disk) mapSlab(n int64) { d.data = make([]byte, n) }
