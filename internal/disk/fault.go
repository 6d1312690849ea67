package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Device is the block-device contract the single-level store and the
// write-ahead log are written against: positioned reads and writes, a
// durability barrier, and a fixed capacity.  *Disk implements it; FaultDisk
// wraps any Device to inject crashes, so the store's crash-consistency
// claims can be checked against every possible power-failure point instead
// of only the clean Crash() boundary.
type Device interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Flush() error
	Size() int64
}

var _ Device = (*Disk)(nil)

// ErrFault is returned by a FaultDisk once its configured crash point has
// been reached: the simulated machine has lost power, and every subsequent
// operation fails until the underlying device is reopened.
var ErrFault = errors.New("disk: injected fault (simulated power failure)")

// FaultMode selects what happens to the write that straddles the crash
// point.
type FaultMode int

const (
	// FaultTorn writes the prefix of the straddling write up to the last
	// complete sector before the crash point, then fails.  Sectors are
	// atomic, as real drives guarantee; bytes within a sector are not split.
	FaultTorn FaultMode = iota
	// FaultOmit drops the straddling write entirely before failing — the
	// drive lost power before any of it reached the platter.
	FaultOmit
	// FaultFlip writes the same torn prefix as FaultTorn but corrupts one
	// byte of the final sector it wrote — the sector being written when
	// power died was garbled in flight.  Log checksums must catch this.
	FaultFlip
)

// String implements fmt.Stringer.
func (m FaultMode) String() string {
	switch m {
	case FaultTorn:
		return "torn"
	case FaultOmit:
		return "omit"
	case FaultFlip:
		return "flip"
	default:
		return "unknown"
	}
}

// FaultDisk wraps a Device and kills it after a configurable number of
// written bytes, modelling a power failure at an arbitrary point in the
// write stream.  With no fault armed it is a transparent pass-through that
// records the cumulative byte offset of every write, so a harness can first
// run a workload once to learn its crash points and then replay it with the
// fault armed at each of them.  FaultDisk is safe for concurrent use.
type FaultDisk struct {
	mu      sync.Mutex
	d       Device
	limit   int64 // cumulative written bytes allowed; <0 means no fault armed
	mode    FaultMode
	written int64
	tripped bool
	bounds  []int64 // cumulative written bytes after each WriteAt

	// flushLimit arms the destage-path fault: the nth Flush call (1-based)
	// trips the fault without reaching the inner device, so a volatile write
	// cache behind it never destages — the drive lost power before the
	// barrier completed.  0 means not armed.  flushes counts Flush calls.
	flushLimit int
	flushes    int

	// flipSeed makes FaultFlip's corruption deterministic and reproducible:
	// the flipped byte offset and XOR mask within the final written sector
	// are drawn from a PRNG seeded with it (0 is a seed like any other).
	flipSeed int64

	// rot, when armed, models silent media decay: before every subsequent
	// read or write, rotBits bits inside rotRegion are flipped directly on
	// the inner device — no crash, no error, just damaged bytes waiting to
	// be noticed by whoever checks.  rotRNG keeps the damage deterministic.
	rot       bool
	rotRegion Region
	rotBits   int
	rotRNG    *rand.Rand
}

// Region designates a byte range [Off, Off+Len) of the device, used to aim
// bit-rot injection at a specific on-disk structure.
type Region struct {
	Off, Len int64
}

// NewFaultDisk wraps d with no fault armed (counting mode).
func NewFaultDisk(d Device) *FaultDisk {
	return &FaultDisk{d: d, limit: -1}
}

// Arm configures the crash point: the device fails once limit cumulative
// bytes have been written, handling the straddling write according to mode.
// Arming resets the written-byte counter and the trip state.
func (f *FaultDisk) Arm(limit int64, mode FaultMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limit = limit
	f.mode = mode
	f.written = 0
	f.tripped = false
	f.bounds = nil
	f.flushLimit = 0
	f.flushes = 0
}

// ArmFlush configures a destage-path crash point: the nth Flush call
// (1-based) trips the fault and returns ErrFault without invoking the inner
// device's barrier, so anything the inner device holds in a volatile write
// cache is lost when the harness simulates the power-off (Disk.Crash).
// Together with Disk.FailFlushAfter this covers the group-commit destage
// scenarios: an omitted batch flush here, a partial one there.
func (f *FaultDisk) ArmFlush(nth int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limit = -1
	f.written = 0
	f.tripped = false
	f.bounds = nil
	f.flushLimit = nth
	f.flushes = 0
}

// SetFlipSeed fixes the PRNG seed that FaultFlip draws its corrupted byte
// offset and XOR mask from, so a bit-flip crash-test failure is reproducible
// from the seed recorded in the failure output.  A FaultDisk starts at seed 0.
func (f *FaultDisk) SetFlipSeed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flipSeed = seed
}

// RotBits flips n bits at positions drawn deterministically from seed inside
// region, writing the damage straight through to the inner device.  It models
// a one-shot dose of silent bit rot between operations: no crash, no I/O
// error — the damaged bytes sit on the platter until something reads and
// verifies them.  The injection bypasses the fault byte counter so armed
// crash points are unaffected.
func (f *FaultDisk) RotBits(region Region, n int, seed int64) error {
	if region.Len <= 0 {
		return fmt.Errorf("disk: rot region must be non-empty")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	return rotBits(f.d, region, n, rng)
}

// ArmRot arms standing rot: before every subsequent ReadAt or WriteAt,
// bitsPerOp bits inside region are flipped (deterministically from seed) on
// the inner device.  Disarm with DisarmRot.
func (f *FaultDisk) ArmRot(region Region, bitsPerOp int, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rot = true
	f.rotRegion = region
	f.rotBits = bitsPerOp
	f.rotRNG = rand.New(rand.NewSource(seed))
}

// DisarmRot stops standing rot injection.
func (f *FaultDisk) DisarmRot() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rot = false
	f.rotRNG = nil
}

// rotBits flips n bits inside region on d via read-modify-write.  Caller
// holds f.mu (or owns d exclusively).  The damage is flushed to the platter
// immediately: rot is a media defect, and leaving the flipped bytes pending
// in the device's write cache would let them destage later, on top of
// whatever the host writes there next.
func rotBits(d Device, region Region, n int, rng *rand.Rand) error {
	var b [1]byte
	for i := 0; i < n; i++ {
		off := region.Off + rng.Int63n(region.Len)
		if _, err := d.ReadAt(b[:], off); err != nil {
			return err
		}
		b[0] ^= 1 << uint(rng.Intn(8))
		if _, err := d.WriteAt(b[:], off); err != nil {
			return err
		}
	}
	return d.Flush()
}

// maybeRot applies one dose of standing rot.  Caller holds f.mu.
func (f *FaultDisk) maybeRot() {
	if !f.rot || f.rotRegion.Len <= 0 {
		return
	}
	// Rot damage must not count toward the crash-point byte budget or the
	// write bounds, so it goes straight to the inner device.
	_ = rotBits(f.d, f.rotRegion, f.rotBits, f.rotRNG)
}

// Flushes returns how many Flush calls the device has seen since arming.
func (f *FaultDisk) Flushes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushes
}

// Inner returns the wrapped device (used to reopen the disk image after the
// simulated power failure).
func (f *FaultDisk) Inner() Device { return f.d }

// Tripped reports whether the crash point has been reached.
func (f *FaultDisk) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// BytesWritten returns the cumulative bytes written since the last Arm (or
// creation).
func (f *FaultDisk) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// WriteBounds returns the cumulative written-byte offset recorded after each
// completed WriteAt, in order.  A harness derives its crash points from
// these: faulting at bounds[i] kills the system just before write i+1, and
// any point strictly inside a write's span tears that write.
func (f *FaultDisk) WriteBounds() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int64(nil), f.bounds...)
}

// Size implements Device.
func (f *FaultDisk) Size() int64 { return f.d.Size() }

// ReadAt implements Device; after the fault has tripped the machine is off
// and reads fail too.
func (f *FaultDisk) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	dead := f.tripped
	if !dead {
		f.maybeRot()
	}
	f.mu.Unlock()
	if dead {
		return 0, ErrFault
	}
	return f.d.ReadAt(p, off)
}

// WriteAt implements Device.  A write that would cross the armed crash point
// is truncated to whole sectors (FaultTorn), dropped (FaultOmit), or torn
// with one corrupted byte in its final written sector (FaultFlip); the fault
// then trips and the write returns ErrFault.
func (f *FaultDisk) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tripped {
		return 0, ErrFault
	}
	f.maybeRot()
	n := int64(len(p))
	if f.limit < 0 || f.written+n <= f.limit {
		m, err := f.d.WriteAt(p, off)
		if err == nil {
			f.written += n
			f.bounds = append(f.bounds, f.written)
		}
		return m, err
	}
	// This write straddles the crash point.
	f.tripped = true
	keep := f.limit - f.written
	// Sector atomicity: only whole sectors of the prefix reach the platter.
	if end := off + keep; end%SectorSize != 0 {
		keep = end - end%SectorSize - off
	}
	if f.mode == FaultOmit {
		keep = 0
	}
	if keep > 0 {
		prefix := p[:keep]
		if f.mode == FaultFlip {
			// Corrupt a seeded byte of the final sector that reached the
			// platter, with a seeded non-zero mask, so the exact damage is
			// reproducible from the seed a failing test logs.
			prefix = append([]byte(nil), prefix...)
			rng := rand.New(rand.NewSource(f.flipSeed))
			start := max(keep-SectorSize, 0)
			mask := byte(1 + rng.Intn(255))
			prefix[start+rng.Int63n(keep-start)] ^= mask
		}
		if _, err := f.d.WriteAt(prefix, off); err != nil {
			return 0, err
		}
		f.written += keep
	}
	return 0, ErrFault
}

// Flush implements Device; the barrier fails once the fault has tripped,
// and an armed destage fault trips here before reaching the inner device.
func (f *FaultDisk) Flush() error {
	f.mu.Lock()
	if f.tripped {
		f.mu.Unlock()
		return ErrFault
	}
	f.flushes++
	if f.flushLimit > 0 && f.flushes >= f.flushLimit {
		f.tripped = true
		f.mu.Unlock()
		return ErrFault
	}
	f.mu.Unlock()
	return f.d.Flush()
}
