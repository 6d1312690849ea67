// Package disk simulates the rotating EIDE disk the paper's evaluation runs
// on (a Seagate ST340014A: 7,200 RPM, ~8.3 ms rotational latency, ~58 MB/s
// sustained bandwidth).  Reads and writes move data in an in-memory sector
// array and charge simulated time to a vclock.Clock, modelling seek and
// rotational latency for discontiguous accesses, pure transfer time for
// sequential ones, a volatile write cache whose flush is a barrier (the write
// that follows it at the same place waits out a revolution), and firmware
// read look-ahead.
//
// The single-level store (package store), the write-ahead log (package wal),
// and the Linux-like baseline file system (package baseline) all run on this
// device, so the Figure 12 comparisons use the same latency model on both
// sides.
package disk

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"histar/internal/vclock"
)

// SectorSize is the device's sector size in bytes.
const SectorSize = 512

// Params describes the latency model of the simulated disk.
type Params struct {
	// Sectors is the device capacity in sectors.
	Sectors int64
	// SeekTime is the average seek time charged for a discontiguous access.
	SeekTime time.Duration
	// RotationalLatency is the average rotational delay (half a revolution)
	// charged for a discontiguous access.
	RotationalLatency time.Duration
	// BandwidthBytesPerSec is the sustained media transfer rate.
	BandwidthBytesPerSec float64
	// WriteCache enables the volatile write cache: cached writes cost only
	// transfer time and become durable (and billed for positioning) at the
	// next Flush.  That Flush is a barrier: a write that then continues
	// exactly where it ended waits a full revolution (2 × RotationalLatency).
	WriteCache bool
	// ReadAhead enables firmware read look-ahead: after a read, the
	// following ReadAhead bytes are considered prefetched and a subsequent
	// read within that window costs only transfer time.  The paper's
	// uncached LFS small-file read phase is dominated by this effect.  With
	// it off, even a read that starts where the head stopped waits a full
	// revolution (2 × RotationalLatency).
	ReadAhead int64
}

// PaperDisk returns parameters modelled on the evaluation machines' Seagate
// ST340014A (Section 7): 8.3 ms average rotational latency, ~8.5 ms average
// seek, 58 MB/s media rate, 40 GB capacity.
func PaperDisk() Params {
	return Params{
		Sectors:              40 * 1000 * 1000 * 1000 / SectorSize,
		SeekTime:             8500 * time.Microsecond,
		RotationalLatency:    4150 * time.Microsecond, // half of 8.3 ms full rotation
		BandwidthBytesPerSec: 58 * 1000 * 1000,
		WriteCache:           false,
		ReadAhead:            256 * 1024,
	}
}

// Stats are cumulative operation counts.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Flushes      uint64
	BytesRead    uint64
	BytesWritten uint64
	Seeks        uint64
	PrefetchHits uint64
}

// Disk is a simulated block device.  All methods are safe for concurrent
// use; operations are serialized, as on a single-spindle device.
type Disk struct {
	mu     sync.Mutex
	params Params
	clock  *vclock.Clock
	// data is the platter, every byte a flush or an uncached write left.
	// It is mapped off the Go heap where the platform allows (mapSlab), so
	// a large disk's untouched sectors cost no memory and no GC work; every
	// access to it holds mu.
	data []byte

	headPos int64 // byte offset the head is positioned after the last op
	// barrier is set by a Flush that destaged something and cleared by the
	// next access: the host waited for the platter, so a write that starts
	// exactly at headPos has just missed its sector.
	barrier    bool
	prefetchLo int64 // [lo, hi) window considered prefetched
	prefetchHi int64
	// dirty is the write cache: the bytes cached writes left, ascending by
	// offset, no two overlapping — a write trims whatever cached bytes it
	// covers, so a read and a Flush see the last writer's.
	dirty []extent
	stats Stats

	// Fault injection for crash-consistency tests.
	failNextSync     error // next Flush fails before destaging anything
	partialFlushErr  error // next Flush destages only partialFlushLeft bytes
	partialFlushLeft int64
}

// extent is a run of cached bytes: data, at byte offset off.
type extent struct {
	off  int64
	data []byte
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = errors.New("disk: access beyond device capacity")

// New creates a simulated disk with the given parameters, charging simulated
// time to clock (which must not be nil).
func New(params Params, clock *vclock.Clock) *Disk {
	if clock == nil {
		panic("disk: nil clock")
	}
	if params.Sectors <= 0 {
		params.Sectors = 1 << 20
	}
	if params.BandwidthBytesPerSec <= 0 {
		params.BandwidthBytesPerSec = 50 * 1000 * 1000
	}
	d := &Disk{params: params, clock: clock}
	d.mapSlab(params.Sectors * SectorSize)
	return d
}

// Size returns the device capacity in bytes.
func (d *Disk) Size() int64 { return int64(len(d.data)) }

// Stats returns a snapshot of the cumulative statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the statistics (not the simulated clock).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// transferTime returns the media transfer time for n bytes.
func (d *Disk) transferTime(n int64) time.Duration {
	sec := float64(n) / d.params.BandwidthBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// skipThreshold is the largest forward gap from the current head position
// that is treated as "streaming past" rather than a full seek: the head stays
// on (or near) the same track and simply waits for the platter, so the cost
// is the media transfer time of the skipped span.
const skipThreshold = 2 << 20

// position charges positioning cost for an access at off, honouring
// sequentiality, short forward skips, and the prefetch window for reads.
func (d *Disk) position(off int64, n int64, isRead bool) {
	afterFlush := d.barrier
	d.barrier = false
	if off == d.headPos {
		if afterFlush && !isRead || isRead && d.params.ReadAhead == 0 {
			// Sequential, but the host sent this access only once the last
			// one completed — a write after a flush barrier, or a read on a
			// drive with no look-ahead to hold the sectors that followed —
			// and the next sector has gone by: the platter must come round
			// again, a full revolution, no seek.
			d.clock.Advance(2 * d.params.RotationalLatency)
		}
		return // sequential: no positioning cost
	}
	if isRead && d.params.ReadAhead > 0 && off >= d.prefetchLo && off+n <= d.prefetchHi {
		d.stats.PrefetchHits++
		return // satisfied from the drive's look-ahead buffer
	}
	if gap := off - d.headPos; gap > 0 && gap <= skipThreshold {
		d.clock.Advance(d.transferTime(gap))
		return
	}
	d.stats.Seeks++
	d.clock.Advance(d.params.SeekTime + d.params.RotationalLatency)
}

// ReadAt reads len(p) bytes at byte offset off.
func (d *Disk) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := int64(len(p))
	if off < 0 || off+n > int64(len(d.data)) {
		return 0, fmt.Errorf("%w: off=%d len=%d", ErrOutOfRange, off, n)
	}
	d.position(off, n, true)
	d.clock.Advance(d.transferTime(n))
	copy(p, d.data[off:off+n])
	// Serve cached (not yet flushed) writes so readers see latest data.
	for i := d.cachedFrom(off); i < len(d.dirty) && d.dirty[i].off < off+n; i++ {
		overlayCopy(p, off, d.dirty[i].data, d.dirty[i].off)
	}
	d.headPos = off + n
	if d.params.ReadAhead > 0 {
		d.prefetchLo = off
		d.prefetchHi = off + n + d.params.ReadAhead
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(n)
	return int(n), nil
}

// overlayCopy copies the overlap of src (at absolute offset srcOff) onto dst
// (at absolute offset dstOff).
func overlayCopy(dst []byte, dstOff int64, src []byte, srcOff int64) {
	lo := max(dstOff, srcOff)
	hi := min(dstOff+int64(len(dst)), srcOff+int64(len(src)))
	if lo >= hi {
		return
	}
	copy(dst[lo-dstOff:hi-dstOff], src[lo-srcOff:hi-srcOff])
}

// WriteAt writes len(p) bytes at byte offset off.  With the write cache
// enabled the data lands in the cache and costs only transfer time; it
// becomes durable at the next Flush.
func (d *Disk) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := int64(len(p))
	if off < 0 || off+n > int64(len(d.data)) {
		return 0, fmt.Errorf("%w: off=%d len=%d", ErrOutOfRange, off, n)
	}
	d.stats.Writes++
	d.stats.BytesWritten += uint64(n)
	if d.params.WriteCache {
		d.cache(off, p)
		d.clock.Advance(d.transferTime(n))
		return int(n), nil
	}
	d.position(off, n, false)
	d.clock.Advance(d.transferTime(n))
	copy(d.data[off:], p)
	d.headPos = off + n
	d.invalidatePrefetch(off, n)
	return int(n), nil
}

// cachedFrom is the index of the first cached extent that ends past off.
func (d *Disk) cachedFrom(off int64) int {
	return sort.Search(len(d.dirty), func(i int) bool { return d.dirty[i].end() > off })
}

// cache puts a copy of p at off into the write cache in place of the cached
// bytes it covers: an extent it overlaps keeps only what lies outside it.
func (d *Disk) cache(off int64, p []byte) {
	end := off + int64(len(p))
	i := d.cachedFrom(off)
	j, keep := i, make([]extent, 0, 3)
	for ; j < len(d.dirty) && d.dirty[j].off < end; j++ {
		if e := d.dirty[j]; e.off < off {
			keep = append(keep, extent{e.off, e.data[:off-e.off]})
		}
	}
	keep = append(keep, extent{off, append([]byte(nil), p...)})
	if j > i {
		if e := d.dirty[j-1]; e.end() > end {
			keep = append(keep, extent{end, e.data[end-e.off:]})
		}
	}
	d.dirty = slices.Replace(d.dirty, i, j, keep...)
}

func (d *Disk) invalidatePrefetch(off, n int64) {
	if off < d.prefetchHi && off+n > d.prefetchLo {
		d.prefetchLo, d.prefetchHi = 0, 0
	}
}

// Flush makes all cached writes durable, charging positioning costs for each
// discontiguous run, and leaves a barrier behind (see position).  It is a
// no-op when the write cache is disabled or empty.
func (d *Disk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Flushes++
	if err := d.failNextSync; err != nil {
		d.failNextSync = nil
		return err
	}
	partial, budget := error(nil), int64(-1)
	if d.partialFlushErr != nil {
		partial, budget = d.partialFlushErr, d.partialFlushLeft
		d.partialFlushErr, d.partialFlushLeft = nil, 0
	}
	if len(d.dirty) == 0 {
		return partial
	}
	// Destage in ascending offset order, as a real drive's cache scheduler
	// would, so contiguous runs cost transfer time rather than seeks.
	for _, e := range d.dirty {
		off, data := e.off, e.data
		if budget >= 0 {
			// Power died mid-destage: only whole sectors within the byte
			// budget reach the platter; the rest of the cache is lost.
			if budget < int64(len(data)) {
				keep := budget
				if end := off + keep; end%SectorSize != 0 {
					keep = end - end%SectorSize - off
				}
				if keep > 0 {
					d.position(off, keep, false)
					copy(d.data[off:], data[:keep])
					d.headPos = off + keep
				}
				break
			}
			budget -= int64(len(data))
		}
		d.position(off, int64(len(data)), false)
		copy(d.data[off:], data)
		d.headPos = off + int64(len(data))
	}
	clear(d.dirty) // drop the cached bytes, keep the slice
	d.dirty = d.dirty[:0]
	d.barrier = true
	return partial
}

// FailNextFlush arranges for the next Flush call to return err without
// destaging the cache, for crash-consistency tests.
func (d *Disk) FailNextFlush(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failNextSync = err
}

// FailFlushAfter arranges for the next Flush to destage only the first n
// bytes of the cache (ascending offset order, whole sectors) and then return
// err with the remaining cached writes dropped — power failing in the middle
// of a cache destage.  The group-commit crash tests use it to tear a batch's
// frame at any sector of its flush.
func (d *Disk) FailFlushAfter(n int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.partialFlushErr = err
	d.partialFlushLeft = n
}

// Crash simulates a power failure: all cached (unflushed) writes are lost.
// Data already flushed (or written with the cache disabled) survives.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	clear(d.dirty) // drop the cached bytes, keep the slice
	d.dirty = d.dirty[:0]
	d.prefetchLo, d.prefetchHi = 0, 0
	d.headPos, d.barrier = 0, false
}

// SetReadAhead enables or disables the firmware look-ahead window at run
// time; the paper measures the LFS small-file read phase with prefetch both
// on and off.
func (d *Disk) SetReadAhead(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.params.ReadAhead = bytes
	d.prefetchLo, d.prefetchHi = 0, 0
}
